(** Bounded, fingerprint-keyed in-memory plan cache, plus cache-aware
    optimizer entry points.

    The cache stores winning physical plans (with their cost and the
    producing search's statistics) under {!Fingerprint} keys. Because a
    fingerprint covers the catalog epoch and content digest and every
    plan-relevant option, invalidation is automatic: refreshing
    statistics, editing the schema, toggling a rule or changing the cost
    model changes the key, so stale entries can never be served — they
    simply age out of the LRU.

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
  misses : int;  (** lookups that went to a cold optimization *)
  insertions : int;
  evictions : int;  (** LRU evictions *)
  qerror_evictions : int;
      (** entries evicted by the plan-quality gate: their recorded max
          q-error exceeded the [qerror_limit] passed to {!optimize} *)
  entries : int;
  capacity : int;
}

val stats : t -> stats

val stats_json : stats -> Json.t

(** {1 Entries} *)

type quality = {
  q_execs : int;  (** profiled executions recorded for this plan *)
  q_max_qerror : float;  (** worst per-node q-error over all executions *)
  q_mean_qerror : float;  (** mean of per-execution mean q-errors *)
  q_last_epoch : int;  (** catalog epoch at the latest recorded execution *)
}
(** How well a cached plan's estimates matched reality when it actually
    ran — the record the q-error gate ({!optimize}'s [qerror_limit])
    judges. *)

type entry = {
  e_plan : Engine.plan option;
  e_stats : Engine.stats;  (** statistics of the cold search that produced it *)
  e_quality : quality option;  (** accumulated by {!note_execution} *)
}

val note_execution :
  t -> Fingerprint.t -> epoch:int -> max_qerror:float -> mean_qerror:float -> unit
(** Fold one profiled execution's plan quality into the entry's record,
    without promoting the entry or touching hit/miss counters. No-op
    when the fingerprint is not cached. *)

val quality_json : quality -> Json.t

val entries : t -> entry list
(** Most recently used first. *)

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
  ?qerror_limit:float ->
  ?registry:Metrics.t ->
  ?spans:Oodb_obs.Span.t ->
  t ->
  Catalog.t ->
  Logical.t ->
  outcome
(** [Optimizer.optimize] behind the cache: fingerprint, serve on hit,
    optimize cold and insert on miss. When [options.cache] is off, the
    cache is bypassed entirely (always cold, nothing stored). A hit
    re-derives nothing — no well-formedness re-check, no logical
    properties, no rules.

    [qerror_limit] gates the lookup: an entry whose recorded
    [q_max_qerror] exceeds it is evicted and the lookup misses, so the
    query is re-planned — with corrected statistics when runtime
    feedback is installed. Counted in {!stats.qerror_evictions}.

    When [registry] is given, increments [plancache/hit],
    [plancache/miss], [plancache/insert], [plancache/eviction],
    [plancache/bypass], [plancache/qerror_eviction] and
    [plancache/derivations] (one per logical-property derivation, i.e.
    per memo group created — zero on hits), and records the time to a
    hit/miss verdict in the [plancache/lookup_seconds] histogram.
    [spans] wraps fingerprinting and the lookup (category
    ["plancache"]) and is passed on to the cold search. *)

val optimize_all :
  ?options:Options.t ->
  ?required:Physprop.t ->
  ?registry:Metrics.t ->
  ?spans:Oodb_obs.Span.t ->
  t ->
  Catalog.t ->
  Logical.t list ->
  outcome list
(** The multi-query entry point: cache hits are served individually and
    all misses are optimized together by [Optimizer.optimize_batch]
    against one shared memo, then inserted. With [registry], also
    records [plancache/mqo/roots] (cold roots batched) and
    [plancache/mqo/groups] (final shared-memo group count). *)
