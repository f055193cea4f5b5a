(** Runtime values stored in objects and manipulated by predicates.

    This is the common currency between the storage layer, the algebra's
    predicate language, and the execution engine. Object identity is a
    plain integer OID; inter-object references are [Ref] values, and
    set-valued components (e.g. [Task.team_members]) are [Set] values
    whose elements are usually references. *)

type oid = int

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Date of int  (** days since 1900-01-01; total order matches calendar order *)
  | Ref of oid
  | Set of t list

val equal : t -> t -> bool

val compare : t -> t -> int
(** Total order. Values of different constructors are ordered by
    constructor rank; [Int] and [Float] compare numerically with each
    other. Used by indexes and by hash-based set operations. *)

val hash : t -> int
(** Agrees with {!equal}: equal values hash alike, including an [Int]
    and a [Float] that compare equal. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val date_of_ymd : int -> int -> int -> int
(** [date_of_ymd y m d] encodes a calendar date, monotone in (y, m, d).
    Mirrors the paper's [Date lr(01,01,1992)] example. *)

val as_ref : t -> oid option
(** [Some oid] for [Ref oid], [None] otherwise. *)

val set_elements : t -> t list
(** Elements of a [Set]; [Null] is the empty set; other values raise
    [Invalid_argument]. *)
