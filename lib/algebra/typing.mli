(** Typed algebra IR: compositional type inference for the logical
    object algebra.

    The type of an expression records three things the optimizer must
    preserve under every rewrite:

    - the {e binder environment} — which bindings are in scope and what
      class each ranges over (derived from the catalog, through Mat and
      Unnest path expressions);
    - the {e output columns} when the root is a projection;
    - the {e duplicate semantics} — whether the expression denotes a set
      (no duplicate rows possible) or a bag.

    Ordering is deliberately not part of the logical type: it is a
    physical property, delivered by algorithms and demanded by goals
    (see {!Physprop} and the plan linter).

    {!infer_op} is the single-step judgment: given the types of an
    operator's inputs, produce the output type or a type error. The memo
    enforces it on every multi-expression interned during optimization
    (see [Volcano]), so a transformation rule cannot smuggle an
    ill-typed or scope-changing expression into a group. {!infer} is the
    whole-tree closure of the same judgment. *)

(** Duplicate semantics of a logical expression. *)
type dup =
  | Set_sem  (** no duplicate rows can occur in the denotation *)
  | Bag_sem  (** duplicates possible (e.g. a projection that drops a key) *)

(** Static type of one output column. *)
type col_ty =
  | Typed of Oodb_catalog.Schema.attr_ty
  | Opaque  (** no catalog name for the type, e.g. a null literal *)

type t = {
  ty_bindings : (string * string) list;
      (** binding name -> class, in scope order *)
  ty_cols : (string * col_ty) list option;
      (** [Some] at a projection root: output column name -> type *)
  ty_dup : dup;
}

val equal : t -> t -> bool
(** Group-level type equality: binder environments compare as finite
    maps (rules like join-commute permute scope order), columns compare
    positionally. *)

val pp : Format.formatter -> t -> unit

val pp_col_ty : Format.formatter -> col_ty -> unit

val to_string : t -> string

val infer_op :
  Oodb_catalog.Catalog.t -> Logical.op -> t list -> (t, string) result
(** One-step type inference: the output type of [op] applied to inputs
    of the given types, or a type error (binder out of scope or
    introduced twice, unknown collection or attribute, invalid path
    expression, set operation over unequal scopes, operator over a
    projection). *)

val infer : Oodb_catalog.Catalog.t -> Logical.t -> (t, string) result
(** Whole-expression inference: [infer_op] applied bottom-up. *)

val output_schema :
  Oodb_catalog.Catalog.t -> Logical.t -> ((string * col_ty) list, string) result
(** The schema of the rows execution will actually produce: the named
    columns at a projection root, and [(binding, ref<class>)] pairs for
    every other root — mirrors [Executor.rows_of]. *)

val value_matches : col_ty -> Oodb_storage.Value.t -> bool
(** Does a runtime value inhabit a static column type? [Null] inhabits
    every type (missing fields evaluate to [Null]); [Int] inhabits
    [Float] (numeric comparison collapses them). *)
