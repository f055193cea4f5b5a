(* Reproduction harness: regenerates every table and figure of the
   paper's evaluation (Section 4), prints paper-reported values next to
   measured ones, and adds validation/ablation experiments the paper
   could not run (estimated vs simulated execution, window and buffer
   sweeps). EXPERIMENTS.md summarizes the output of this program. *)

module Value = Oodb_storage.Value
module Logical = Oodb_algebra.Logical
module Catalog = Oodb_catalog.Catalog
module OC = Oodb_catalog.Open_oodb_catalog
module Config = Oodb_cost.Config
module Cost = Oodb_cost.Cost
module Q = Oodb_workloads.Queries
module Datagen = Oodb_workloads.Datagen
module Opt = Open_oodb.Optimizer
module Options = Open_oodb.Options
module Physprop = Open_oodb.Physprop
module Engine = Open_oodb.Model.Engine
module Db = Oodb_exec.Db
module Executor = Oodb_exec.Executor
module Greedy = Oodb_baselines.Greedy
module Naive = Oodb_baselines.Naive
module Json = Oodb_util.Json
module Clock = Oodb_util.Clock
module Metrics = Oodb_obs.Metrics
module Profile = Oodb_obs.Profile
module Feedback = Oodb_obs.Feedback
module Report = Oodb_obs.Report
module Plancache = Oodb_plancache.Plancache

let section title =
  Format.printf "@.============================================================@.";
  Format.printf "%s@." title;
  Format.printf "============================================================@."

let subsection title = Format.printf "@.---- %s ----@." title

(* The paper-exact catalog drives all estimates. *)
let cat = OC.catalog_with_indexes ()

(* The generated database validates plans by execution. Building it takes
   about a second. *)
let db = lazy (Datagen.generate ())

let optimize ?(options = Options.default) ?(catalog = cat) q = Opt.optimize ~options catalog q

let est ?options ?catalog q = Cost.total (Opt.cost (optimize ?options ?catalog q))

let show_plan label outcome =
  Format.printf "@.%s:@.%a@.anticipated cost: %a   (optimization %.4fs; %a)@." label
    Engine.pp_plan (Opt.plan_exn outcome) Cost.pp (Opt.cost outcome) outcome.Opt.opt_seconds
    Opt.pp_stats outcome.Opt.stats

let execute label plan =
  let rows, report = Executor.run_measured (Lazy.force db) plan in
  ignore rows;
  Format.printf "%-34s %a@." label Executor.pp_report report;
  report

(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1. Catalog information (reconstructed; see DESIGN.md)";
  Format.printf "%a" Catalog.pp_table cat;
  Format.printf "Indexes: %s@."
    (String.concat ", "
       (List.map
          (fun ix ->
            Printf.sprintf "%s on %s(%s), %d keys" ix.Catalog.ix_name ix.Catalog.ix_coll
              (String.concat "." ix.Catalog.ix_path) ix.Catalog.ix_distinct)
          (Catalog.indexes cat)))

let figures_2_to_5 () =
  section "Figures 2, 3 and 5. Logical algebra expressions with Mat";
  subsection "Figure 2 (path expressions as Mat compositions)";
  Format.printf "%a@." Logical.pp Q.fig2;
  subsection "Figure 3 (set-valued path: Unnest + Mat)";
  Format.printf "%a@." Logical.pp Q.fig3;
  subsection "Figure 5 (Query 1 as presented to the optimizer)";
  Format.printf "%a@." Logical.pp Q.q1

(* Table 2 + Figures 6 and 7 --------------------------------------- *)

let query1 () =
  section "Query 1: path expressions and inter-object references";
  let all = optimize Q.q1 in
  let naive = optimize ~options:(Options.disable "mat-to-join" Options.default) Q.q1 in
  let no_window =
    optimize
      ~options:(Options.with_assembly_window 1 (Options.disable "mat-to-join" Options.default))
      Q.q1
  in
  let no_commute = optimize ~options:(Options.without_join_commutativity Options.default) Q.q1 in
  show_plan "Figure 6: optimal execution plan (all rules)" all;
  show_plan "Figure 7: plan without Mat-to-Join (naive pointer chasing)" naive;
  subsection "Table 2. Optimization results for Query 1";
  Format.printf "%-28s %10s %10s %12s %12s %14s@." "Configuration" "Opt [ms]" "plans" "Est [s]"
    "% of opt" "paper Est [s]";
  let all_cost = Cost.total (Opt.cost all) in
  let row label outcome paper =
    Format.printf "%-28s %10.2f %10d %12.1f %12.0f %14s@." label
      (outcome.Opt.opt_seconds *. 1000.0)
      outcome.Opt.stats.Engine.candidates
      (Cost.total (Opt.cost outcome))
      (100.0 *. Cost.total (Opt.cost outcome) /. all_cost)
      paper
  in
  row "All rules" all "161 (100%)";
  row "W/o Mat-to-Join (Fig. 7)" naive "681 (422%)";
  row "W/o window (and no joins)" no_window "1188 (737%)";
  row "W/o join commutativity" no_commute "-";
  Format.printf
    "(The paper obtained Fig. 7 by disabling join commutativity; our rule set still finds a\n\
    \ join-based plan in that configuration, so the pointer-chasing row disables Mat-to-Join —\n\
    \ see EXPERIMENTS.md.)@.";
  subsection "Execution on the generated database (beyond the paper)";
  let r_all = execute "optimal plan" (Opt.plan_exn all) in
  let r_naive = execute "naive pointer chasing" (Opt.plan_exn naive) in
  Format.printf "simulated-disk ratio naive/optimal: %.1fx@."
    (r_naive.Executor.simulated_seconds /. r_all.Executor.simulated_seconds)

(* Figures 8 and 9 --------------------------------------------------- *)

let query2 () =
  section "Query 2: collapse-to-index-scan over a path index";
  let all = optimize Q.q2 in
  let no_collapse = optimize ~options:(Options.disable "collapse-index-scan" Options.default) Q.q2 in
  show_plan "Figure 8: optimal plan (path index on mayor.name)" all;
  show_plan "Figure 9: plan without collapse-to-index-scan" no_collapse;
  Format.printf "@.est: with rule %.2fs (paper 0.08), without %.2fs (paper 119.6) — %.0fx apart@."
    (Cost.total (Opt.cost all))
    (Cost.total (Opt.cost no_collapse))
    (Cost.total (Opt.cost no_collapse) /. Cost.total (Opt.cost all));
  subsection "Execution on the generated database";
  ignore (execute "index-scan plan" (Opt.plan_exn all));
  ignore (execute "assembly plan (Fig. 9)" (Opt.plan_exn no_collapse))

(* Figures 10 and 11 ------------------------------------------------- *)

let query3 () =
  section "Query 3: physical properties and goal-directed search";
  let all = optimize Q.q3 in
  show_plan "Figure 10: optimal plan (assembly enforcer above the index scan)" all;
  subsection "Figure 11. The search state this plan comes from";
  Format.printf
    "Alg-Project requires {c, c.mayor} present in memory.  The collapsed index scan@.\
     delivers only {c}, so it cannot implement the Select subquery directly:@.\
     \  alternative 1: Filter with input {c, c.mayor}  ->  assembly over a full file scan@.\
     \  alternative 2: assembly ENFORCER for c.mayor over the plan for {c}  ->  index scan@.";
  let filter_based =
    optimize ~options:(Options.disable "collapse-index-scan" Options.default) Q.q3
  in
  let no_enforcer = optimize ~options:(Options.disable "assembly-enforcer" Options.default) Q.q3 in
  Format.printf "alternative 1 (no index):   %a   (paper: 119.6s)@." Cost.pp (Opt.cost filter_based);
  Format.printf "alternative 2 (chosen):     %a   (paper: 0.12s)@." Cost.pp (Opt.cost all);
  Format.printf "without the enforcer:       %a@." Cost.pp (Opt.cost no_enforcer);
  subsection "Execution on the generated database";
  ignore (execute "figure 10 plan" (Opt.plan_exn all))

(* Table 3 + Figures 12 and 13 --------------------------------------- *)

let query4 () =
  section "Query 4: heuristic (greedy) vs cost-based optimization";
  let all = optimize Q.q4 in
  show_plan "Figure 12: optimal plan (only the time index)" all;
  (match Greedy.optimize cat Q.q4 with
  | Ok plan ->
    Format.printf "@.Figure 13: greedy plan (uses both indexes):@.%a@.anticipated cost: %a@."
      Engine.pp_plan plan Cost.pp plan.Engine.cost
  | Error m -> Format.printf "greedy failed: %s@." m);
  subsection "Table 3. Anticipated execution times for Query 4 [s]";
  let with_indexes ixs =
    let c = OC.catalog () in
    List.iter (Catalog.add_index c) ixs;
    c
  in
  let configs =
    [ ("None", with_indexes []);
      ("Time only", with_indexes [ OC.idx_tasks_time ]);
      ("Name only", with_indexes [ OC.idx_employees_name ]);
      ("Both", with_indexes [ OC.idx_tasks_time; OC.idx_employees_name ]) ]
  in
  Format.printf "%-12s %14s %14s@." "Indexes" "All rules" "Greedy use";
  List.iter
    (fun (label, c) ->
      let full = est ~catalog:c Q.q4 in
      let greedy =
        match Greedy.optimize c Q.q4 with
        | Ok p -> Cost.total p.Engine.cost
        | Error _ -> nan
      in
      Format.printf "%-12s %14.2f %14.2f@." label full greedy)
    configs;
  Format.printf "paper:       None 108/108   Time 1.73/1.73   Name 28.4/28.4   Both 1.73/10.1@.";
  subsection "Execution on the generated database";
  ignore (execute "cost-based plan" (Opt.plan_exn all));
  match Greedy.optimize (Db.catalog (Lazy.force db)) Q.q4 with
  | Ok plan -> ignore (execute "greedy plan" plan)
  | Error m -> Format.printf "greedy failed: %s@." m

(* Estimated vs simulated execution ---------------------------------- *)

let validation () =
  section "Validation: anticipated I/O cost vs simulated disk time (beyond the paper)";
  Format.printf "%-8s %12s %14s %10s@." "query" "est io [s]" "simulated [s]" "rows";
  List.iter
    (fun (name, q) ->
      let d = Lazy.force db in
      let outcome = Opt.optimize (Db.catalog d) q in
      let plan = Opt.plan_exn outcome in
      let rows, report = Executor.run_measured d plan in
      Format.printf "%-8s %12.2f %14.2f %10d@." name (Opt.cost outcome).Cost.io
        report.Executor.simulated_seconds (List.length rows))
    [ ("q1", Q.q1); ("q2", Q.q2); ("q3", Q.q3); ("q4", Q.q4) ]

(* Ablations ---------------------------------------------------------- *)

let ablation_window () =
  section "Ablation: assembly window size (Query 2 assembly plan, 10,000 mayors)";
  Format.printf
    "Simulated on a memory-constrained machine (128 buffered pages) where the Person extent@.";
  Format.printf "does not fit: the window of open references is what reorders the fetches.@.";
  let small = Datagen.generate ~buffer_pages:128 () in
  Format.printf "%-10s %14s %16s@." "window" "est cost [s]" "simulated [s]";
  List.iter
    (fun w ->
      let options =
        Options.with_assembly_window w
          (Options.disable "mat-to-join"
             (Options.disable "collapse-index-scan" Options.default))
      in
      let outcome = optimize ~options ~catalog:(Db.catalog small) Q.q2 in
      let _, report = Executor.run_measured small (Opt.plan_exn outcome) in
      Format.printf "%-10d %14.2f %16.2f@." w
        (Cost.total (Opt.cost outcome))
        report.Executor.simulated_seconds)
    [ 1; 2; 4; 8; 16; 64; 256 ]

let ablation_buffer () =
  section "Ablation: buffer pool size vs naive pointer chasing (Query 1, simulated disk)";
  Format.printf
    "The cost model charges naive traversal for repeated dereferences; at execution time a@.";
  Format.printf
    "large enough buffer pool absorbs them (the effect the paper notes can only be studied@.";
  Format.printf "in the context of a real, working system). Small pools restore the gap.@.";
  Format.printf "%-14s %18s %18s %10s@." "buffer [pages]" "optimal sim [s]" "naive sim [s]"
    "ratio";
  List.iter
    (fun pages ->
      let d = Datagen.generate ~buffer_pages:pages () in
      let dcat = Db.catalog d in
      let optimal = Opt.plan_exn (Opt.optimize dcat Q.q1) in
      let naive =
        Opt.plan_exn (Opt.optimize ~options:(Options.disable "mat-to-join" Options.default) dcat Q.q1)
      in
      let _, r_opt = Executor.run_measured d optimal in
      let _, r_naive = Executor.run_measured d naive in
      Format.printf "%-14d %18.2f %18.2f %10.1f@." pages r_opt.Executor.simulated_seconds
        r_naive.Executor.simulated_seconds
        (r_naive.Executor.simulated_seconds /. r_opt.Executor.simulated_seconds))
    [ 16; 64; 256; 1024 ]

let ablation_selectivity () =
  section "Ablation: default selectivity (Query 4 without indexes)";
  Format.printf "%-14s %14s@." "default sel." "est cost [s]";
  List.iter
    (fun s ->
      let config = { Config.default with Config.default_selectivity = s } in
      let options = Options.with_config config Options.default in
      let c = OC.catalog () in
      Format.printf "%-14.2f %14.2f@." s (est ~options ~catalog:c Q.q4))
    [ 0.01; 0.05; 0.10; 0.25; 0.50 ]

let ablation_pruning () =
  section "Ablation: branch-and-bound pruning (search effort on Query 1)";
  let run pruning =
    optimize ~options:{ Options.default with Options.pruning } Q.q1
  in
  let on = run true and off = run false in
  Format.printf "%-12s %10s %10s %12s@." "pruning" "plans" "memo hits" "est [s]";
  Format.printf "%-12s %10d %10d %12.1f@." "on" on.Opt.stats.Engine.candidates
    on.Opt.stats.Engine.phys_memo_hits
    (Cost.total (Opt.cost on));
  Format.printf "%-12s %10d %10d %12.1f@." "off" off.Opt.stats.Engine.candidates
    off.Opt.stats.Engine.phys_memo_hits
    (Cost.total (Opt.cost off))

let ablation_guidance () =
  section "Heuristic guidance: seeding branch-and-bound with the greedy plan's cost";
  Format.printf
    "The paper lists evaluating Volcano's heuristic guidance and pruning as future work.@.";
  Format.printf
    "Seeding the cost limit with the greedy baseline's estimate prunes the search:@.";
  Format.printf "%-28s %12s %12s %12s@." "query" "unseeded" "seeded" "est [s]";
  List.iter
    (fun (name, q) ->
      let unseeded = optimize q in
      match Greedy.optimize cat q with
      | Error _ -> Format.printf "%-28s (greedy not applicable)@." name
      | Ok g ->
        (* a hair of slack: the heuristic accumulates costs in a different
           order, so its total can differ from the search's by an ulp *)
        let limit = Cost.add g.Engine.cost (Cost.cpu 1e-6) in
        let seeded = Opt.optimize ~initial_limit:limit cat q in
        Format.printf "%-28s %12d %12d %12.2f@." name
          unseeded.Opt.stats.Engine.candidates seeded.Opt.stats.Engine.candidates
          (Cost.total (Opt.cost seeded));
        assert (Cost.total (Opt.cost seeded) <= Cost.total (Opt.cost unseeded) +. 1e-9))
    [ ("q1", Q.q1); ("q2", Q.q2); ("q3", Q.q3); ("q4", Q.q4) ]

(* Wide-join search scaling ------------------------------------------- *)

(* How optimization time and memo size grow with join width. One cold
   run per width: at these scales the signal is orders of magnitude, not
   microseconds. Width 10 takes about 20 s and width 11 over 250 s, so
   the sweep stops at 10 to stay inside a CI budget. *)
let scale_widths = [ 4; 6; 8; 10 ]

type scale_row = {
  s_width : int;  (* joined collections *)
  s_opt_seconds : float;  (* one cold optimization *)
  s_groups : int;
  s_mexprs : int;
  s_candidates : int;  (* physical plans costed (the paper's "plans") *)
  s_pruned : int;  (* candidates refused by bound propagation *)
}

let search_scale_measurements () =
  List.map
    (fun width ->
      let q = Q.join_chain width in
      Gc.full_major ();
      let t0 = Clock.now () in
      let o = Opt.optimize cat q in
      let st = o.Opt.stats in
      { s_width = width;
        s_opt_seconds = Clock.now () -. t0;
        s_groups = st.Engine.groups;
        s_mexprs = st.Engine.mexprs;
        s_candidates = st.Engine.candidates;
        s_pruned = st.Engine.pruned_candidates })
    scale_widths

let scale_json s =
  Json.Obj
    [ ("width", Json.Int s.s_width);
      ("opt_seconds", Json.float s.s_opt_seconds);
      ("memo_groups", Json.Int s.s_groups);
      ("memo_mexprs", Json.Int s.s_mexprs);
      ("plans", Json.Int s.s_candidates);
      ("pruned", Json.Int s.s_pruned) ]

let pp_search_scale rows =
  Format.printf "%6s %12s %8s %8s %8s %8s@." "width" "opt [s]" "groups" "mexprs" "plans"
    "pruned";
  List.iter
    (fun s ->
      Format.printf "%6d %12.3f %8d %8d %8d %8d@." s.s_width s.s_opt_seconds s.s_groups
        s.s_mexprs s.s_candidates s.s_pruned)
    rows

let search_scale () =
  section "Wide-join scaling: search over n-way join chains";
  let rows = search_scale_measurements () in
  pp_search_scale rows;
  rows

(* Standalone CI smoke mode: run the sweep and fail if the widest chain
   blew the time budget (OODB_SCALE_BUDGET seconds, default 120). A
   budget that is not a finite positive number is a usage error (exit
   2): a typo must not turn the gate into one that always passes. *)
let search_scale_gate () =
  let budget =
    match Sys.getenv_opt "OODB_SCALE_BUDGET" with
    | None -> Ok 120.0
    | Some s -> (
      match float_of_string_opt s with
      | Some b when Float.is_finite b && b > 0.0 -> Ok b
      | _ -> Error s)
  in
  match budget with
  | Error s ->
    Format.eprintf "OODB_SCALE_BUDGET=%S: expected a finite number of seconds > 0@." s;
    2
  | Ok budget ->
    let rows = search_scale () in
    let worst =
List.fold_left (fun m s -> Float.max m s.s_opt_seconds) 0.0 rows
    in
    let ok = worst <= budget in
    Format.printf "%s: slowest width took %.1fs (budget %.1fs)@."
      (if ok then "ok" else "FAIL") worst budget;
    if ok then 0 else 1

let ablation_warm_start () =
  section "Extension: Lesson-7 warm-start assembly (opt-in; beyond the paper)";
  Format.printf
    "The paper's Lesson 7 proposes pre-scanning a scannable collection before assembly.@.";
  Format.printf "Enabling the implemented rule improves the paper's own optimal Query 1 plan:@.";
  let base = optimize Q.q1 in
  let warm = optimize ~options:(Options.with_warm_start Options.default) Q.q1 in
  Format.printf "  all paper rules:        %a@." Cost.pp (Opt.cost base);
  Format.printf "  + warm-start assembly:  %a@." Cost.pp (Opt.cost warm);
  show_plan "Query 1 plan with warm-start enabled" warm;
  subsection "Execution on the generated database";
  ignore (execute "paper-optimal plan" (Opt.plan_exn base));
  ignore (execute "warm-start plan" (Opt.plan_exn warm))

let ablation_merge_join () =
  section "Extension: merge join and the sort-order property (beyond the paper)";
  Format.printf
    "The paper's optimizer 'currently does not use merge-join'; this implementation adds it.@.";
  Format.printf
    "Resolving task team members against Employees with hash/pointer joins and@.";
  Format.printf
    "assembly disabled: only merge join remains, with the Employees file scan@.";
  Format.printf
    "delivering identity order for free and a sort enforcer on the member side.@.";
  let member_query =
    Oodb_algebra.Logical.(
      get ~coll:"Tasks" ~binding:"t"
      |> unnest ~out:"m" ~src:"t" ~field:"team_members"
      |> mat_ref ~out:"e" ~src:"m"
      |> select
           [ Oodb_algebra.Pred.atom Oodb_algebra.Pred.Ge
               (Oodb_algebra.Pred.Field ("e", "age"))
               (Oodb_algebra.Pred.Const (Oodb_storage.Value.Int 40)) ])
  in
  let options =
    List.fold_left (fun o r -> Options.disable r o) Options.default
      [ "hash-join"; "pointer-join"; "mat-assembly" ]
  in
  let outcome = optimize ~options member_query in
  show_plan "member query via merge join" outcome;
  Format.printf "vs the unrestricted optimum: %a@." Cost.pp
    (Opt.cost (optimize member_query));
  subsection "Execution on the generated database";
  ignore (execute "merge-join plan" (Opt.plan_exn outcome))

(* Repeated workload: plan cache + multi-query optimization ----------- *)

(* The workload through the plan cache twice (the second pass is all
   hits), and the space the memo-level MQO saves: the sum of the cold
   per-query memos' group counts against the group count of one shared
   memo. Returned as JSON for BENCH_results.json and printed as a section
   of the full run. *)
let plan_cache_measurements () =
  let pc = Plancache.create () in
  let pass () = List.map (fun (_, q) -> Plancache.optimize pc cat q) Q.all in
  let cold = pass () in
  ignore (pass ());
  let individual_groups =
    List.fold_left
      (fun acc (o : Plancache.outcome) -> acc + o.Plancache.stats.Engine.groups)
      0 cold
  in
  let shared_groups =
    match List.rev (Opt.optimize_all cat (List.map snd Q.all)) with
    | last :: _ -> last.Opt.stats.Engine.groups
    | [] -> 0
  in
  let s = Plancache.stats pc in
  let json =
    Json.Obj
      [ ("queries", Json.Int (List.length Q.all));
        ( "mqo",
          Json.Obj
            [ ("individual_groups_total", Json.Int individual_groups);
              ("shared_memo_groups", Json.Int shared_groups) ] );
        ("cache", Plancache.stats_json s) ]
  in
  (individual_groups, shared_groups, s, json)

let repeated_workload () =
  section "Repeated workload: plan cache and memo-level MQO (beyond the paper)";
  let individual, shared, s, _json = plan_cache_measurements () in
  Format.printf "memo groups: %d per-query total vs %d shared (MQO saves %d)@." individual
    shared (individual - shared);
  Format.printf "cache: %d hits, %d misses, %d insertions@." s.Plancache.hits
    s.Plancache.misses s.Plancache.insertions

(* The cardinality-feedback loop -------------------------------------- *)

(* Cold optimize on the skewed catalog (employee-name distinct corrupted
   to 2 where the data has ~100), one profiled execution, harvest the
   observed statistics, re-optimize with them installed: the plan flips
   from the full file scan to the name-index scan, and the winner is
   cheaper by *measured* simulated disk time, not just by estimate. The
   same loop `oodb run --skewed --feedback` closes across processes. *)
let feedback_loop_measurements () =
  let d = Datagen.generate_skewed ~scale:0.05 () in
  let dcat = Db.catalog d in
  let cold = Opt.optimize dcat Q.fred in
  let cold_plan = Opt.plan_exn cold in
  let _, r_cold, prof_cold = Profile.run d cold_plan in
  let fb = Feedback.create dcat in
  let harvested = Feedback.harvest fb Config.default dcat prof_cold in
  let cold_q = Feedback.plan_quality prof_cold in
  let options = Feedback.install fb Options.default in
  let warm = Opt.optimize ~options dcat Q.fred in
  let warm_plan = Opt.plan_exn warm in
  let _, r_warm, prof_warm = Profile.run ~config:options.Options.config d warm_plan in
  let warm_q = Feedback.plan_quality prof_warm in
  let rec flatten depth (n : Profile.node) =
    (depth, n) :: List.concat_map (flatten (depth + 1)) n.Profile.children
  in
  let side (prof : Profile.node) (report : Executor.io_report) (max_q, mean_q) =
    Json.Obj
      [ ("simulated_seconds", Json.float report.Executor.simulated_seconds);
        ("max_qerror", Json.float max_q);
        ("mean_qerror", Json.float mean_q);
        ( "nodes",
          Json.List
            (List.map
               (fun (_, (n : Profile.node)) ->
                 Json.Obj
                   [ ("op", Json.String (Open_oodb.Physical.to_string n.Profile.alg));
                     ("est_rows", Json.float n.Profile.est_rows);
                     ("actual_rows", Json.Int n.Profile.actual_rows);
                     ("q_error", Json.float n.Profile.q_error);
                     ("est_source", Json.String n.Profile.est_source) ])
               (flatten 0 prof)) ) ]
  in
  let json =
    Json.Obj
      [ ("query", Json.String "fred");
        ("harvested_observations", Json.Int harvested);
        ("cold", side prof_cold r_cold cold_q);
        ("with_feedback", side prof_warm r_warm warm_q);
        ( "simulated_speedup",
          Json.float
            (if r_warm.Executor.simulated_seconds > 0. then
               r_cold.Executor.simulated_seconds /. r_warm.Executor.simulated_seconds
             else infinity) ) ]
  in
  ((cold_plan, r_cold, prof_cold, cold_q), (warm_plan, r_warm, prof_warm, warm_q),
   harvested, flatten, json)

let feedback_loop () =
  section "Cardinality feedback: one profiled run flips the plan (beyond the paper)";
  Format.printf
    "Skewed catalog: Employee.name recorded as 2 distinct values where the data has ~100,@.";
  Format.printf
    "so the cold optimizer prices name == \"Fred\" at selectivity 1/2 and rejects the index.@.";
  let (cold_plan, r_cold, prof_cold, (cold_max, cold_mean)),
      (warm_plan, r_warm, prof_warm, (warm_max, warm_mean)),
      harvested, flatten, _json =
    feedback_loop_measurements ()
  in
  let table title prof =
    Format.printf "@.%s (est vs actual):@." title;
    Format.printf "  %-44s %10s %10s %8s %s@." "operator" "est" "actual" "q-error" "source";
    List.iter
      (fun (depth, (n : Profile.node)) ->
        Format.printf "  %-44s %10.1f %10d %8.2f %s@."
          (String.make (2 * depth) ' ' ^ Open_oodb.Physical.to_string n.Profile.alg)
          n.Profile.est_rows n.Profile.actual_rows n.Profile.q_error n.Profile.est_source)
      (flatten 0 prof)
  in
  Format.printf "@.cold plan:@.%a@." Engine.pp_plan cold_plan;
  table "cold execution" prof_cold;
  Format.printf "  plan quality: max q-error %.2f, mean %.2f; %d observation(s) harvested@."
    cold_max cold_mean harvested;
  Format.printf "@.re-optimized with feedback installed:@.%a@." Engine.pp_plan warm_plan;
  table "corrected execution" prof_warm;
  Format.printf "  plan quality: max q-error %.2f, mean %.2f@." warm_max warm_mean;
  Format.printf "@.simulated disk: cold %.2fs vs corrected %.2fs (%.1fx cheaper by actuals)@."
    r_cold.Executor.simulated_seconds r_warm.Executor.simulated_seconds
    (r_cold.Executor.simulated_seconds /. Float.max 1e-9 r_warm.Executor.simulated_seconds)

(* Machine-readable results ------------------------------------------ *)

(* BENCH_results.json: the paper's headline tables plus the full
   per-query observability records (search trace aggregates, plan costs,
   measured I/O, per-operator profiles) from lib/obs. The [--json] flag
   emits only this file, for CI. *)
let json_results ~scale path =
  let t2_configs =
    [ ("all-rules", Options.default);
      ("wo-mat-to-join", Options.disable "mat-to-join" Options.default);
      ( "wo-window",
        Options.with_assembly_window 1 (Options.disable "mat-to-join" Options.default) );
      ("wo-join-commute", Options.without_join_commutativity Options.default) ]
  in
  let table2 =
    Json.List
      (List.map
         (fun (label, options) ->
           let o = optimize ~options Q.q1 in
           Json.Obj
             [ ("configuration", Json.String label);
               ("opt_ms", Json.float (o.Opt.opt_seconds *. 1000.0));
               ("plans", Json.Int o.Opt.stats.Engine.candidates);
               ("est_seconds", Json.float (Cost.total (Opt.cost o))) ])
         t2_configs)
  in
  let table3 =
    let with_indexes ixs =
      let c = OC.catalog () in
      List.iter (Catalog.add_index c) ixs;
      c
    in
    Json.List
      (List.map
         (fun (label, c) ->
           let full = est ~catalog:c Q.q4 in
           let greedy =
             match Greedy.optimize c Q.q4 with
             | Ok p -> Json.float (Cost.total p.Engine.cost)
             | Error _ -> Json.Null
           in
           Json.Obj
             [ ("indexes", Json.String label);
               ("all_rules_est_seconds", Json.float full);
               ("greedy_est_seconds", greedy) ])
         [ ("none", with_indexes []);
           ("time-only", with_indexes [ OC.idx_tasks_time ]);
           ("name-only", with_indexes [ OC.idx_employees_name ]);
           ("both", with_indexes [ OC.idx_tasks_time; OC.idx_employees_name ]) ])
  in
  let registry = Metrics.create () in
  let reports =
    List.map
      (* 256 retained events per query keep the artifact small; the trace
         aggregates stay exact regardless of the window. *)
      (fun (name, q) -> Report.collect ~registry ~trace_capacity:256 (Lazy.force db) ~name q)
      Q.all
  in
  let _, _, _, plan_cache = plan_cache_measurements () in
  let _, _, _, _, feedback_loop = feedback_loop_measurements () in
  let json =
    Json.Obj
      [ ("schema_version", Json.Int 1);
        ("table2", table2);
        ("table3", table3);
        ("plan_cache", plan_cache);
        ("feedback_loop", feedback_loop);
        ("search_scale", Json.List (List.map scale_json scale));
        ("workload", Report.workload_json ~registry reports) ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "wrote %s@." path

let () =
  if Array.exists (fun a -> a = "--search-scale") Sys.argv then exit (search_scale_gate ());
  if Array.exists (fun a -> a = "--json") Sys.argv then begin
    json_results ~scale:(search_scale ()) "BENCH_results.json";
    exit 0
  end;
  Format.printf "Open OODB query optimizer: reproduction of the SIGMOD'93 evaluation@.";
  table1 ();
  figures_2_to_5 ();
  query1 ();
  query2 ();
  query3 ();
  query4 ();
  validation ();
  ablation_window ();
  ablation_buffer ();
  ablation_selectivity ();
  ablation_pruning ();
  ablation_guidance ();
  ablation_warm_start ();
  ablation_merge_join ();
  let scale = search_scale () in
  repeated_workload ();
  feedback_loop ();
  json_results ~scale "BENCH_results.json";
  Format.printf "@.done.@."
