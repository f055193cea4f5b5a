(** Deterministic synthetic database matching the Table 1 catalog.

    Key invariants relied on by the experiments (at [scale = 1.0]):
    - 10 of the 100 plants are located in Dallas, so 100 of the 1,000
      departments and 5,000 of the 50,000 employees qualify for Query 1;
    - exactly 2 of the 10,000 cities have a mayor named "Joe" (Query 2);
    - employee names have 100 distinct values including "Fred";
    - task completion times have 1,000 distinct values, so
      [time == 100] selects ~10 tasks (Query 4);
    - every reference is containment-consistent with the collection the
      Mat-to-Join rule would join against (referential integrity).

    All data derives from fixed congruences, not a PRNG, so runs are
    reproducible and counts are exact. *)

(** {1 Generic measured-statistics and index helpers}

    Shared with the scenario factory ([lib/scenario]), whose generated
    databases install the same kind of measured catalog statistics and
    B-tree indexes as the Table-1 database below. *)

val measured_distinct : Oodb_storage.Store.t -> coll:string -> field:string -> int
(** Exact distinct-value count of a stored field, via free [peek] reads. *)

val measured_avg_set_size : Oodb_storage.Store.t -> coll:string -> field:string -> float
(** Mean cardinality of a set-valued field over a collection. *)

val add_field_index :
  Oodb_storage.Store.t ->
  Oodb_exec.Db.t ->
  Oodb_catalog.Catalog.t ->
  name:string ->
  coll:string ->
  field:string ->
  unit
(** Build a B-tree index on a terminal field, register it with the
    database, and record its metadata (with measured [ix_distinct]) in
    the catalog. *)

val add_path_index :
  Oodb_storage.Store.t ->
  Oodb_exec.Db.t ->
  Oodb_catalog.Catalog.t ->
  name:string ->
  coll:string ->
  ref_field:string ->
  field:string ->
  unit
(** Same for a two-step path index [ref_field.field] (the shape of the
    paper's [cities_mayor_name]); objects with a null reference key as
    [Null]. *)

val generate : ?scale:float -> ?buffer_pages:int -> unit -> Oodb_exec.Db.t
(** Build store + physical indexes under a fresh
    {!Oodb_catalog.Open_oodb_catalog.catalog_with_indexes} catalog whose
    collection cardinalities are adjusted to the actual generated counts
    when [scale <> 1.0]. [scale] scales every collection (useful for fast
    tests; minimum sizes keep the schema connected). *)

val generate_catalog_only : ?scale:float -> unit -> Oodb_catalog.Catalog.t
(** The catalog that [generate] would pair with the data. *)

val generate_skewed : ?scale:float -> ?buffer_pages:int -> unit -> Oodb_exec.Db.t
(** {!generate}, then deterministically corrupt the employee-name
    statistics (class distinct and the [employees_name] index's
    [ix_distinct]) down to 2 where the data really has ~100 distinct
    names. The cold optimizer then prices [name = "Fred"] at selectivity
    1/2 and rejects the name index; one profiled execution under
    feedback observes the true selectivity and records a q-error past
    the default gate, so the next optimization flips to the index scan.
    The demo catalog for the cardinality-feedback loop. *)

val micro : ?variant:int -> unit -> Oodb_exec.Db.t
(** A micro-database with 2–4 objects per extent, for bounded
    (denotational) rule certification: small enough to evaluate both
    sides of every rewrite exhaustively with the reference interpreter.
    [variant] deterministically changes extent sizes, reference wiring,
    and team-set sizes. Built through the same generator as {!generate},
    so referential integrity holds. *)

val micro_family : unit -> Oodb_exec.Db.t list
(** The enumerated family [micro ~variant:0 .. 5]. *)
