(** Bounded, fingerprint-keyed in-memory plan cache in front of
    {!Open_oodb.Optimizer.optimize}.

    The cache stores winning physical plans (with their cost and the
    producing search's statistics) under {!Fingerprint} keys. A key
    covers the query and every plan-relevant option, so toggling a rule
    or changing the cost model gives another key.

    The key names no catalog. An entry holds the read set of the search
    that produced it ({!Oodb_catalog.Catalog.record_reads}): the
    catalog's identity, its layout version and the version of each
    statistic the search read. It also holds the feedback tables it was
    planned under. A lookup serves the entry only while the read set is
    current and the caller's feedback tables are the same ones; a write
    to a statistic the plan never read leaves it served. A stale entry
    is a miss: it is re-optimized and replaced in place.

    The cache is one bounded LRU keyed on the fingerprint's key string
    itself, so entries are shared only by equal keys. It lives and dies
    with the process: nothing is persisted or read back. *)

module Engine = Open_oodb.Model.Engine
module Catalog = Oodb_catalog.Catalog
module Logical = Oodb_algebra.Logical
module Options = Open_oodb.Options
module Physprop = Open_oodb.Physprop
module Metrics = Oodb_obs.Metrics
module Json = Oodb_util.Json

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the number of entries (default 256). *)

(** {1 Cache inspection} *)

type stats = {
  hits : int;  (** lookups served from the cache *)
  misses : int;
      (** lookups that went to a cold optimization: no entry, or a stale
          one *)
  insertions : int;
  evictions : int;  (** LRU evictions *)
  entries : int;
  capacity : int;
}

val stats : t -> stats

val stats_json : stats -> Json.t

(** {1 Cache-aware optimization} *)

type outcome = {
  plan : Engine.plan option;
  stats : Engine.stats;  (** of the producing search — cached or fresh *)
  opt_seconds : float;  (** this call: fingerprint + lookup, or cold search *)
  cached : bool;
}

val optimize :
  ?options:Options.t ->
  ?required:Physprop.t ->
  ?registry:Metrics.t ->
  ?spans:Oodb_obs.Span.t ->
  t ->
  Catalog.t ->
  Logical.t ->
  outcome
(** [Optimizer.optimize] behind the cache: fingerprint, serve a
    current entry, or optimize cold while recording the statistics read
    and insert (or replace) the entry. A hit re-derives nothing — no
    well-formedness re-check, no logical properties, no rules.

    When [registry] is given, increments [plancache/hit],
    [plancache/miss], [plancache/insert], [plancache/eviction] and
    [plancache/derivations] (one per logical-property derivation, i.e.
    per memo group created — zero on hits), and records the time to a
    hit/miss verdict in the [plancache/lookup_seconds] histogram.
    [spans] wraps fingerprinting and the lookup (category
    ["plancache"]) and is passed on to the cold search. *)
