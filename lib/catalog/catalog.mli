(** Catalog: collections (user sets and type extents), their statistics,
    and index metadata — the information in the paper's Table 1 plus the
    distinct-value statistics that drive selectivity estimation.

    The catalog is metadata only; it does not hold data. Index
    availability is mutable so experiments can sweep index configurations
    (paper Table 3) without rebuilding anything else. *)

type coll_kind =
  | Set     (** user-defined named set, e.g. [Cities] *)
  | Extent  (** type extent, e.g. [extent(Job)] *)
  | Hidden  (** physically present but not scannable — the paper's [Plant]
                type, which "does not have an extent": the optimizer may
                not scan it and has no cardinality information for it *)

type collection = {
  co_name : string;
  co_class : string;
  co_kind : coll_kind;
  co_card : int;       (** cardinality statistic *)
  co_obj_bytes : int;  (** average object size in bytes *)
}

type index_def = {
  ix_name : string;
  ix_coll : string;        (** indexed collection *)
  ix_path : string list;   (** key path; length > 1 is a path index *)
  ix_distinct : int;       (** distinct keys statistic *)
}

type t

val create : Schema.t -> t

val schema : t -> Schema.t

(** {1 Epochs}

    A monotone counter identifying the catalog's mutation state: every
    statistics refresh or schema-level edit ([add_collection],
    [set_distinct], [set_avg_set_size], [add_index], [drop_index]) bumps
    it, so cached artifacts derived from the catalog — plan-cache
    entries in particular — can be invalidated by comparing epochs
    instead of rescanning contents. *)

val epoch : t -> int

val bump_epoch : t -> unit
(** Manual invalidation knob: force every catalog-derived cache entry
    stale without changing any statistic. *)

val digest : t -> Digest.t
(** Deterministic digest of the catalog's contents (schema classes,
    collections, indexes, statistics). Two catalogs built the same way —
    even in different processes — digest equal; any mutation that bumps
    the epoch also changes the digest unless it restored identical
    contents. Used alongside {!epoch} in plan-cache fingerprints so
    persisted entries survive process restarts safely. Computed once per
    epoch: repeated calls between mutations return the cached value. *)

(** {1 Collections}

    [collections], [scannables_of_class] and [class_cardinality] are
    computed once per epoch and class, like {!digest}: the estimator asks
    for them once per identity atom it prices. *)

val add_collection : t -> collection -> unit
(** @raise Invalid_argument on duplicate names or unknown classes. *)

val collections : t -> collection list

val find_collection : t -> string -> collection option

val scannables_of_class : t -> string -> collection list
(** Sets and extents (not [Hidden]) whose members have the given class —
    the candidate join inputs for the Mat-to-Join transformation. *)

val class_cardinality : t -> string -> int option
(** Total instances of a class if any non-hidden collection records it
    (largest collection wins: an extent contains every set). [None] for
    classes like [Plant] with no extent — the situation that makes the
    optimizer assume one fetch per reference in Query 1. *)

(** {1 Statistics} *)

val set_distinct : t -> cls:string -> field:string -> int -> unit
(** Record the number of distinct values of an attribute. *)

val distinct : t -> cls:string -> field:string -> int option

val set_avg_set_size : t -> cls:string -> field:string -> float -> unit

val avg_set_size : t -> cls:string -> field:string -> float
(** Average cardinality of a set-valued attribute; defaults to 10. *)

(** {1 Indexes} *)

val add_index : t -> index_def -> unit

val drop_index : t -> string -> unit
(** Remove by index name; unknown names are ignored. *)

val indexes : t -> index_def list

val indexes_on : t -> coll:string -> index_def list

val find_index : t -> coll:string -> path:string list -> index_def option
(** Index on exactly this key path of this collection. *)

val pp_table : Format.formatter -> t -> unit
(** Render the collection statistics in the style of the paper's Table 1. *)
