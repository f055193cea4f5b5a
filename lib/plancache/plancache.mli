(** Bounded, fingerprint-keyed plan cache with optional disk
    persistence, plus cache-aware optimizer entry points.

    The cache stores winning physical plans (with their cost and the
    producing search's statistics) under {!Fingerprint} keys. Because a
    fingerprint covers the catalog epoch and content digest and every
    plan-relevant option, invalidation is automatic: refreshing
    statistics, editing the schema, toggling a rule or changing the cost
    model changes the key, so stale entries can never be served — they
    simply age out of the LRU.

    Two tiers: a bounded in-memory LRU always, keyed on the fingerprint's
    key string itself, so entries are shared only by equal keys; below
    it, when [dir] is given (or [OODB_PLANCACHE_DIR] is set for
    {!of_env}), a directory of marshalled entries that survives process
    restarts, one file per key named by the key's MD5
    ({!Fingerprint.to_hex}). Disk reads are verified (format tag +
    fingerprint echo) and fall back to a cold optimization on any
    mismatch or corruption. *)

module Engine = Open_oodb.Model.Engine
module Catalog = Oodb_catalog.Catalog
module Logical = Oodb_algebra.Logical
module Options = Open_oodb.Options
module Physprop = Open_oodb.Physprop
module Metrics = Oodb_obs.Metrics
module Json = Oodb_util.Json

type t

val create : ?capacity:int -> ?dir:string -> unit -> t
(** [capacity] bounds the in-memory tier (default 256 entries). [dir] —
    created if missing — enables the persistent tier. *)

val of_env : ?capacity:int -> unit -> t
(** {!create} with [dir] taken from the [OODB_PLANCACHE_DIR] environment
    variable when set and non-empty; purely in-memory otherwise. This is
    what the test suite uses, so CI can run it twice — without and with
    a persisted cache directory — to catch cache-state leakage. *)

val dir : t -> string option

(** {1 Cache inspection} *)

type stats = {
  hits : int;  (** lookups served (memory or disk) *)
  misses : int;  (** lookups that went to a cold optimization *)
  insertions : int;
  evictions : int;  (** in-memory LRU evictions (disk entries persist) *)
  disk_hits : int;  (** subset of [hits] that came from the disk tier *)
  disk_rejects : int;
      (** disk entries rejected by validation (e.g. the plan no longer
          typechecks against the current catalog); each is deleted and
          counted as a miss *)
  qerror_evictions : int;
      (** entries evicted by the plan-quality gate: their recorded max
          q-error exceeded the limit passed to {!lookup} *)
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
    ran — the record the q-error gate ({!lookup}'s [qerror_limit])
    judges. *)

type entry = {
  e_fingerprint : string;
      (** {!Fingerprint.to_hex} of the key it is filed under on disk;
          [""] while the cache has no directory *)
  e_plan : Engine.plan option;
  e_stats : Engine.stats;  (** statistics of the cold search that produced it *)
  e_quality : quality option;  (** accumulated by {!note_execution} *)
}

val lookup :
  ?validate:(entry -> bool) ->
  ?qerror_limit:float ->
  t ->
  Fingerprint.t ->
  entry option
(** Memory first, then disk (a disk hit is promoted into memory).
    [validate] guards the disk tier only: a disk entry that fails it is
    deleted and the lookup degrades to a miss. The cache-aware entry
    points pass a plan-lint check against the current catalog, so a
    stale directory (schema drift, dropped index) cannot resurrect a
    plan that no longer typechecks.

    [qerror_limit] guards {e both} tiers: an entry whose recorded
    [q_max_qerror] exceeds it is evicted from memory and disk and the
    lookup misses, so the caller re-plans — with corrected statistics
    when runtime feedback is installed. Counted in
    {!stats.qerror_evictions}. *)

val note_execution :
  t -> Fingerprint.t -> epoch:int -> max_qerror:float -> mean_qerror:float -> unit
(** Fold one profiled execution's plan quality into the entry's record,
    in memory and (when persistent) on disk, without promoting the entry
    or touching hit/miss counters. No-op when the fingerprint is not
    cached. *)

val quality_json : quality -> Json.t

val entries : t -> entry list
(** In-memory entries, most recently used first. *)

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
    properties, no rules. When [registry] is given, increments
    [plancache/hit], [plancache/miss], [plancache/insert],
    [plancache/eviction], [plancache/disk_hit], [plancache/bypass],
    [plancache/qerror_eviction] and [plancache/derivations] (one per logical-property derivation, i.e.
    per memo group created — zero on hits), and records the time to a
    hit/miss verdict in the [plancache/lookup_seconds] histogram.
    [spans] wraps fingerprinting and the lookup (category
    ["plancache"]) and is passed on to the cold search. *)

val optimize_all :
  ?options:Options.t ->
  ?required:Physprop.t ->
  ?qerror_limit:float ->
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
