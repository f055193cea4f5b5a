(** Predicate language of the optimizer-input algebra.

    Following the paper's separation of a rich user algebra from an
    optimizable algebra "with simple arguments", predicates here are
    conjunctions of comparison atoms whose operands are constants,
    terminal fields of in-scope bindings, or the identity of a binding.
    All path traversal has been made explicit by [Mat]/[Unnest] operators
    during simplification, so an operand like [Field ("c.mayor", "name")]
    refers to the binding introduced by [Mat c.mayor]. *)

type operand =
  | Const of Oodb_storage.Value.t
  | Field of string * string
      (** [(binding, field)] — a terminal (non-path) attribute; the field
          may be reference-valued, in which case it compares by OID. *)
  | Self of string
      (** identity (OID) of a binding's object, as in [e.department == d] *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type atom = { cmp : cmp; lhs : operand; rhs : operand }

type t = atom list
(** Conjunction; [[]] is [true]. *)

val atom : cmp -> operand -> operand -> atom

val bindings_of_operand : operand -> string list

val dedup : string list -> string list
(** The names without repeats, in first-occurrence order. *)

val bindings : t -> string list
(** Free bindings, no duplicates, in first-occurrence order. *)

val memory_bindings : t -> string list
(** Bindings whose {e object} must be present in memory to evaluate the
    predicate: those read through [Field]. [Self] operands compare
    identities, which every tuple carries without materialization. *)

val bindings_of_atom : atom -> string list

val rename : (string -> string) -> t -> t
(** Apply a binding renaming to every operand. *)

val ref_eq_sides : atom -> (string * string * string) option
(** [Some (src, field, target)] when the atom is an OID equality linking a
    reference field to an object identity, i.e. [src.field == target] or
    the mirrored form — the shape produced by the Mat-to-Join rule. *)

val flip : cmp -> cmp
(** Comparison with operands swapped: [flip Lt = Gt], [flip Eq = Eq]. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val normalize : t -> t
(** Canonical conjunct order: sorted by {!compare_atom} with duplicates
    removed. Transformation rules that recombine predicate lists must
    emit normalized lists so the memo does not intern the same atom set
    under several list orders. *)

val pp_operand : Format.formatter -> operand -> unit

val pp : Format.formatter -> t -> unit
(** Paper style: [c.mayor.name == "Joe" && c.age >= 32]. *)

val to_string : t -> string
