(** Physical properties of intermediate results.

    The property central to the paper is {e presence in memory}: the set
    of bindings whose objects are materialized in each output tuple (not
    just referenced by OID). File scans deliver their binding in memory;
    an index scan delivers only the scanned binding, never path
    components; the assembly algorithm both implements [Mat] and
    {e enforces} this property.

    A sort-order slot extends the vector beyond the paper's
    implementation (which "currently supports only presence in memory"):
    merge join requires its inputs ordered on the join keys and the sort
    enforcer or an order-preserving scan delivers them — the extension
    the paper explicitly forecast when adding merge join. *)

module Bset : Set.S with type elt = string

type order = {
  ord_binding : string;
  ord_field : string option;
      (** [None]: ordered by the binding's object identity (OID) — the
          order a file scan naturally delivers and the one merge join
          needs on the referenced side of a link *)
}

type t = {
  in_memory : Bset.t;
  order : order option;
}

val empty : t

val in_memory : string list -> t

val with_order : order -> t -> t

val mem : t -> string -> bool

val add : string -> t -> t

val remove : string -> t -> t

val union : t -> t -> t
(** Union of in-memory sets; keeps the left order. *)

val satisfies : delivered:t -> required:t -> bool
(** Superset on [in_memory]; order must match exactly when required. *)

val equal : t -> t -> bool

val hash : t -> int

val pp : Format.formatter -> t -> unit
