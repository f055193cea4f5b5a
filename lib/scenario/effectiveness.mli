(** OptMark-style optimizer effectiveness scoring.

    For each query the final memo is re-walked to sample up to [sample]
    structurally distinct physical plans for the root goal (same
    implementation rules and enforcers the search used, but keeping many
    plans per (group, required) goal instead of only the cheapest).
    Every sampled plan is statically verified and executed on the
    simulated store under measured conditions (statistics reset, buffer
    pool flushed), and the chosen plan is scored by:

    - {b rank}: 1 + the number of sampled alternatives strictly faster
      (in simulated disk seconds) than the chosen plan;
    - {b regret}: chosen seconds / best sampled seconds, 1.0 when the
      optimizer's choice was (among the sample) optimal.

    The {e negative control} rebuilds the scenario database with
    corrupted anchor statistics ({!Scenario.build_db}[ ~corrupt:true]):
    the optimizer then prefers a file scan for the anchor lookup while
    the index plan remains in the memo, so a working scorer must report
    regret > 1 there. *)

type score = {
  s_query : string;
  s_alternatives : int;
  s_rank : int;
  s_regret : float;
  s_chosen_seconds : float;
  s_best_seconds : float;
  s_row_mismatches : int;
  s_why_not : Oodb_obs.Provenance.classification option;
      (** when regret > 1: the why-not classification of the best
          sampled plan's distinguishing operator (the topmost operator
          shape present in the fastest alternative but absent from the
          chosen plan) — was it never derived, derived but lost on
          estimated cost, or pruned? Only this query is re-optimized
          with provenance recording on. [None] when the chosen plan was
          (among the sample) optimal, or when the plans differ only in
          shape arrangement. *)
}

type report = {
  e_index : int;
  e_scores : score list;
  e_control : score option;
}

val score_zql :
  ?sample:int -> Oodb_exec.Db.t -> Open_oodb.Options.t -> name:string -> zql:string ->
  (score, string) result

val negative_control : ?sample:int -> Scenario.t -> (score, string) result
(** Score the scenario's anchor lookup on the corrupted-statistics
    database. *)

val run : ?sample:int -> Scenario.t -> report

val report_json : report -> Oodb_util.Json.t
