(** Machine-readable observability reports: one record per query tying
    together the optimizer trace, the chosen plan, and the measured
    execution profile — the payload behind [oodb stats] and the
    benchmark's [BENCH_results.json]. *)

module Json = Oodb_util.Json
module Engine = Open_oodb.Model.Engine

type t = {
  name : string;
  outcome : Open_oodb.Optimizer.outcome;
  trace : Trace.t;
  rows : Oodb_exec.Executor.row list;
  report : Oodb_exec.Executor.io_report;
  profile : Profile.node option;  (** [None] when the optimizer found no plan *)
}

val collect :
  ?options:Open_oodb.Options.t ->
  ?registry:Metrics.t ->
  ?trace_capacity:int ->
  ?spans:Span.t ->
  Oodb_exec.Db.t ->
  name:string ->
  Oodb_algebra.Logical.t ->
  t
(** Optimize [query] with a fresh {!Trace} recorder attached, then
    execute the winning plan under the {!Profile} counting iterators.
    When [registry] is given, headline figures (groups, candidates,
    optimization/simulated seconds, rows, I/O) are also accumulated
    there under ["<name>/..."] metric names, so a caller sweeping a
    workload gets a cross-query {!Metrics.snapshot} for free; latency
    distributions land in the cross-query ["opt/seconds"],
    ["exec/batch_rows"] and per-operator
    ["exec/op/<op>/exclusive_seconds"] histograms. [spans] wraps the
    optimize and execute phases (category ["pipeline"]) around the
    engine's and profiler's finer spans. *)

val stats_json : Engine.stats -> Json.t

val to_json : t -> Json.t
(** [{"name": .., "optimizer": {"stats", "opt_seconds", "cost", "plan",
    "trace"}, "execution": {"io", "profile"}}]. *)

val workload_json : ?registry:Metrics.t -> ?extra:(string * Json.t) list -> t list -> Json.t
(** Wrap per-query records with a schema version and, when a [registry]
    is given, its metrics snapshot:
    [{"schema_version": 1, "queries": [..], "metrics": ..}]. [extra]
    fields are appended at the top level — e.g. a ["plan_cache"] section
    from the plan-cache layer, which sits above this library and so
    serializes its own stats. *)
