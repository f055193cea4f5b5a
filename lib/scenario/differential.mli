(** Differential fuzzing over a scenario: every query is compiled from
    its ZQL {e text} (so the lexer/parser/simplifier are on the path),
    optimized and executed under the default configuration, then
    re-optimized and re-executed under each variant configuration —
    batch sizes 1 and 64, pruning off, assembly window 1, individual
    rule toggles, a cold-then-warm plan cache, and a feedback-harvesting
    round trip. The pruning-off variant additionally demands plan
    presence and [Cost.compare]-equal winner {e cost} with the default
    (branch-and-bound) search, not just row parity —
    the guard on the bound's float-level contract ([Cost.slack],
    lexicographic [Cost.compare]). Every winner passes
    {!Oodb_verify.Verify.plan}; every memo passes
    {!Oodb_verify.Verify.types}; every variant's row multiset must equal
    the baseline's.

    A failing (query, variant) pair is shrunk greedily — dropping
    set-operation branches, ORDER BY, projections and WHERE conjuncts
    while the failure reproduces — to a minimal ZQL counterexample. *)

type failure = {
  f_query : string;
  f_variant : string;
  f_detail : string;
  f_zql : string;
  f_shrunk_zql : string;
}

type report = {
  d_index : int;
  d_queries : int;
  d_checks : int;
  d_failures : failure list;
}

type kind =
  | V_options of Open_oodb.Options.t
  | V_same_cost of Open_oodb.Options.t
      (** a search that must not change the winner (pruning off): a
          plan exactly when the default finds one, at a
          [Cost.compare]-equal winner cost, with equal rows *)
  | V_cache
  | V_feedback

val variants : unit -> (string * kind) list

val compile :
  Oodb_catalog.Catalog.t ->
  string ->
  (Oodb_algebra.Logical.t * Open_oodb.Physprop.t, string) result
(** ZQL text to (logical expression, required physical properties),
    through the real lexer/parser/simplifier; an ORDER BY becomes a
    required sort-order property. *)

val variant_failure : Oodb_exec.Db.t -> kind -> string -> string option
(** [Some detail] when optimizing/executing the ZQL text under the
    variant disagrees with the default configuration (or either side
    fails verification). The predicate the shrinker replays. *)

val canon_rows : Oodb_exec.Executor.row list -> Oodb_exec.Executor.row list
(** Multiset canonical form: fields sorted within rows, rows sorted. *)

val shrink_candidates : Zql.Ast.query -> Zql.Ast.query list
(** One-step structural simplifications of a query (fewer set-operation
    branches, no ORDER BY, no projection, one conjunct fewer) — the
    moves the greedy shrinker descends through. *)

val run : Scenario.t -> report
(** Build the scenario's database and check every query against every
    variant. *)

val report_json : report -> Oodb_util.Json.t
