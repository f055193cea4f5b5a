(** The Open OODB query optimizer: public entry point.

    Takes a logical algebra expression (usually produced by the ZQL
    simplifier), runs the Volcano search with the Open OODB rule set, and
    returns the optimal physical plan with its anticipated execution
    cost, the search statistics, and the wall-clock optimization time. *)

type outcome = {
  plan : Model.Engine.plan option;
      (** [None] only if no combination of algorithms can deliver the
          required properties (does not happen with the full rule set) *)
  stats : Model.Engine.stats;
  opt_seconds : float;  (** optimization time *)
  memo : Model.Engine.ctx;  (** final memo, for inspection *)
  root : Model.Engine.group;
}

val optimize :
  ?options:Options.t ->
  ?required:Physprop.t ->
  ?initial_limit:Oodb_cost.Cost.t ->
  ?closure_fuel:int ->
  ?trace:(Model.Engine.event -> unit) ->
  ?spans:Oodb_util.Span.t ->
  ?provenance:bool ->
  Oodb_catalog.Catalog.t ->
  Oodb_algebra.Logical.t ->
  outcome
(** Optimize a (well-formed) logical expression. [required] defaults to
    no required properties — the usual goal for a query root.
    [initial_limit] seeds branch-and-bound with a heuristic plan's cost
    (Volcano's heuristic-guidance mechanism, which the paper lists as
    unevaluated future work); if no plan at or below the limit exists
    the outcome carries no plan. [closure_fuel] bounds logical-closure
    work for rule-set diagnostics (see {!Model.Engine.run}). [trace]
    receives every search event (see {!Model.Engine.event}); leave it
    unset for the zero-overhead nil-sink fast path. [spans] collects an
    ["optimize"] span (category ["optimizer"]) enclosing the engine's
    per-phase spans (see {!Model.Engine.session}). [provenance]
    (default [false]) records derivation lineage for the explanation
    readers in [Oodb_obs.Provenance]. The search is deterministic, so a
    recording run replays the default run: same memo, winner, statistics
    (apart from [prov_records]/[prov_dropped]) and rule counters.
    @raise Invalid_argument if the expression is not well-formed, or if
    [options.verify] is on and the winning plan fails {!Planlint.plan} —
    the signature of an unsound rule. *)

val optimize_all :
  ?options:Options.t ->
  ?required:Physprop.t ->
  Oodb_catalog.Catalog.t ->
  Oodb_algebra.Logical.t list ->
  outcome list
(** Optimize a batch of queries against {e one} shared memo
    ({!Model.Engine.session}), each for the same [required] properties
    (default none): every root is registered before any is solved, so
    the logical closure runs once over the union of the queries and a
    subexpression common to several queries is expanded, costed and
    pruned exactly once — memo-level multi-query optimization (Roy et
    al., SIGMOD 2000). Outcomes are returned in input order; they all
    share the same [memo], whose statistics are session-cumulative (each
    outcome snapshots them at its completion, so [stats.groups] of the
    last outcome is the whole batch's group count). [opt_seconds] of
    each outcome covers its own registration and search, so later
    queries' smaller times show the sharing. Plans are identical in
    rows-produced (and, when no query adds alternatives to another's
    groups, identical in cost) to per-query {!optimize}. *)

val cost : outcome -> Oodb_cost.Cost.t
(** Anticipated execution cost of the chosen plan.
    @raise Invalid_argument when no plan was found. *)

val plan_exn : outcome -> Model.Engine.plan

val explain : outcome -> string
(** Plan rendering in the style of the paper's figures, followed by the
    anticipated cost and search statistics. *)

val pp_stats : Format.formatter -> Model.Engine.stats -> unit
