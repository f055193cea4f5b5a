(** The logical algebra that is the input to the optimizer (paper §3).

    The foundation is the traditional set/relation operators plus two
    object-specific operators: [Unnest] for set-valued components and the
    paper's novel [Mat] (materialize), which represents one link of a path
    expression and brings the referenced component "into scope". A binding
    enters scope by being scanned ([Get]) or referenced ([Mat]/[Unnest])
    and remains in scope until a [Project] discards it. *)

type proj = { p_expr : Pred.operand; p_name : string }

type op =
  | Get of { coll : string; binding : string }
      (** scan collection [coll], binding each member *)
  | Select of Pred.t
  | Project of proj list
  | Join of Pred.t
  | Cross
  | Mat of { src : string; field : string option; out : string }
      (** dereference [src.field], bringing the target into scope as
          [out]; the conventional [out] for [Mat c.mayor] is ["c.mayor"].
          [field = None] materializes the reference held by binding [src]
          itself — the paper's [Mat m.employee: e] resolving the
          reference [m] revealed by an [Unnest] into the object [e] *)
  | Unnest of { src : string; field : string; out : string }
      (** flatten the set-valued component [src.field], one output tuple
          per element; the element is a {e reference} in scope as [out] —
          reading its attributes requires materializing it first *)
  | Union
  | Intersect
  | Difference

type t = { op : op; inputs : t list }

(** {1 Constructors} (arity-checked) *)

val get : coll:string -> binding:string -> t

val select : Pred.t -> t -> t

val project : proj list -> t -> t

val join : Pred.t -> t -> t -> t

val cross : t -> t -> t

val mat : ?out:string -> src:string -> field:string -> t -> t
(** [out] defaults to ["<src>.<field>"]. *)

val mat_ref : out:string -> src:string -> t -> t
(** Materialize the reference binding [src] itself as [out]
    ([Mat { field = None }]). *)

val unnest : ?out:string -> src:string -> field:string -> t -> t
(** [out] defaults to ["<src>.<field>[]"]. *)

val union : t -> t -> t

val intersect : t -> t -> t

val difference : t -> t -> t

val arity : op -> int

(** {1 Structure} *)

val equal : t -> t -> bool

val compare : t -> t -> int

val hash : t -> int

val scope : t -> string list
(** Bindings in scope at the root, in introduction order. [Project]
    narrows the scope to the bindings its expressions mention. *)

val binding_class : Oodb_catalog.Catalog.t -> t -> string -> string option
(** Class of a binding introduced somewhere below the root. *)

val well_formed : Oodb_catalog.Catalog.t -> t -> (unit, string) result
(** Scoping and schema checks: every operand refers to an in-scope
    binding and an existing attribute; [Mat] follows a single-valued
    reference; [Unnest] follows a set-valued attribute; set operators
    combine inputs of identical scope; no binding is introduced twice. *)

val pp_op : Format.formatter -> op -> unit

val pp : Format.formatter -> t -> unit
(** Vertical rendering in the style of the paper's figures. *)

val to_string : t -> string
