(* Reproduction harness: regenerates every table and figure of the
   paper's evaluation (Section 4), prints paper-reported values next to
   measured ones, and adds validation/ablation experiments the paper
   could not run (estimated vs simulated execution, window and buffer
   sweeps). Optimization-time microbenchmarks run under Bechamel at the
   end. EXPERIMENTS.md summarizes the output of this program. *)

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
module Metrics = Oodb_obs.Metrics
module Profile = Oodb_obs.Profile
module Feedback = Oodb_obs.Feedback
module Report = Oodb_obs.Report
module History = Oodb_obs.History
module Provenance = Oodb_obs.Provenance
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

(* How optimization time and memo size grow with join width, under the
   guided (promise-ordered, cost-bounded) search and under the
   exhaustive default. One cold run per width: at these scales the
   signal is orders of magnitude, not microseconds. The exhaustive side
   is skipped beyond [exhaustive_max_width] — it measures ~16s at width
   10 and grows ~15x per width — so the sweep stays inside a CI budget
   while the guided side still covers the headline width. *)
let scale_widths = [ 4; 6; 8; 10 ]

let exhaustive_max_width = 8

let search_scale_measurements () =
  List.map
    (fun width ->
      let q = Q.join_chain width in
      let time options =
        Gc.full_major ();
        let t0 = Unix.gettimeofday () in
        let o = Opt.optimize ~options cat q in
        (Unix.gettimeofday () -. t0, o)
      in
      let guided_s, o = time (Options.with_guided Options.default) in
      let exhaustive_s =
        if width <= exhaustive_max_width then fst (time Options.default) else Float.nan
      in
      let st = o.Opt.stats in
      { History.s_width = width;
        s_opt_seconds = guided_s;
        s_exhaustive_seconds = exhaustive_s;
        s_groups = st.Engine.groups;
        s_mexprs = st.Engine.mexprs;
        s_candidates = st.Engine.candidates;
        s_pruned = st.Engine.pruned_candidates + st.Engine.pruned_subgoals })
    scale_widths

let pp_search_scale rows =
  Format.printf "%6s %12s %12s %8s %8s %8s %8s@." "width" "guided [s]" "exhaust [s]"
    "groups" "mexprs" "plans" "pruned";
  List.iter
    (fun (s : History.scale_rec) ->
      Format.printf "%6d %12.3f %12s %8d %8d %8d %8d@." s.History.s_width
        s.History.s_opt_seconds
        (if Float.is_nan s.History.s_exhaustive_seconds then "-"
         else Printf.sprintf "%.3f" s.History.s_exhaustive_seconds)
        s.History.s_groups s.History.s_mexprs s.History.s_candidates s.History.s_pruned)
    rows

let search_scale () =
  section "Wide-join scaling: guided search over n-way join chains";
  let rows = search_scale_measurements () in
  pp_search_scale rows;
  rows

(* Standalone CI smoke mode: run the sweep and fail if the widest chain
   blew the time budget (OODB_SCALE_BUDGET seconds, default 120). *)
let search_scale_gate () =
  let budget =
    match Sys.getenv_opt "OODB_SCALE_BUDGET" with
    | Some s -> (try float_of_string s with _ -> 120.0)
    | None -> 120.0
  in
  let rows = search_scale () in
  let worst =
    List.fold_left (fun m (s : History.scale_rec) -> Float.max m s.History.s_opt_seconds) 0.0
      rows
  in
  if worst > budget then begin
    Format.printf "FAIL: slowest guided width took %.1fs (budget %.1fs)@." worst budget;
    1
  end
  else begin
    Format.printf "ok: slowest guided width took %.1fs (budget %.1fs)@." worst budget;
    0
  end

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

(* Vectorized execution: tuple-at-a-time vs batch-at-a-time ----------- *)

(* Same plans, same row multisets (test_vectorized checks that); this
   measures only the engine-side wall time of pulling the iterator tree
   at batch size 1 (the classic Volcano protocol) vs the default 64.

   Methodology: the repetition count is calibrated per query so every
   trial runs for a comparable wall time, the two configurations are
   measured in interleaved trials (so drift affects both alike), each
   trial starts from a warm-up run and a completed major GC collection
   (so one configuration's garbage is not collected on the other's
   clock), and the reported figure is the minimum over trials — the
   standard estimator for the noise-free cost of a deterministic
   computation. *)
let vectorized_measurements ?(trials = 5) () =
  let d = Lazy.force db in
  let dcat = Db.catalog d in
  let trial plan batch_size reps =
    let config = { Config.default with Config.batch_size } in
    ignore (Executor.run ~config d plan);
    Gc.full_major ();
    let t0 = Sys.time () in
    for _ = 1 to reps do
      ignore (Executor.run ~config d plan)
    done;
    (Sys.time () -. t0) /. float_of_int reps
  in
  let per_query =
    List.map
      (fun (name, q) ->
        let plan = Opt.plan_exn (Opt.optimize dcat q) in
        let config = { Config.default with Config.batch_size = 1 } in
        ignore (Executor.run ~config d plan);
        let t0 = Sys.time () in
        ignore (Executor.run ~config d plan);
        let once = Sys.time () -. t0 in
        let reps = max 5 (min 100_000 (int_of_float (0.1 /. Float.max once 1e-6))) in
        let t1 = ref infinity and t64 = ref infinity in
        for _ = 1 to trials do
          t1 := Float.min !t1 (trial plan 1 reps);
          t64 := Float.min !t64 (trial plan 64 reps)
        done;
        let t1 = !t1 and t64 = !t64 in
        (name, t1, t64, if t64 > 0. then t1 /. t64 else infinity))
      [ ("q1", Q.q1); ("q2", Q.q2); ("q3", Q.q3); ("q4", Q.q4) ]
  in
  let json =
    Json.Obj
      [ ("batch_sizes", Json.List [ Json.Int 1; Json.Int 64 ]);
        ("trials", Json.Int trials);
        ( "queries",
          Json.List
            (List.map
               (fun (name, t1, t64, sp) ->
                 Json.Obj
                   [ ("query", Json.String name);
                     ("tuple_at_a_time_seconds", Json.float t1);
                     ("batch64_seconds", Json.float t64);
                     ("speedup", Json.float sp) ])
               per_query) ) ]
  in
  (per_query, json)

let vectorized_execution () =
  section "Vectorized execution: tuple-at-a-time vs batch-at-a-time (beyond the paper)";
  Format.printf
    "Same plans and rows; the only change is the unit flowing between operators.@.";
  let per_query, _ = vectorized_measurements () in
  Format.printf "%-8s %15s %15s %10s@." "query" "batch=1 [ms]" "batch=64 [ms]" "speedup";
  List.iter
    (fun (name, t1, t64, sp) ->
      Format.printf "%-8s %15.3f %15.3f %9.2fx@." name (t1 *. 1000.) (t64 *. 1000.) sp)
    per_query

(* Repeated workload: plan cache + multi-query optimization ----------- *)

(* One cold pass of the whole workload through the plan cache (batched
   over a shared memo), then [repeats] warm passes that should be pure
   fingerprint-and-lookup. Also compares the shared memo's final group
   count against the sum of per-query memos — the space the memo-level
   MQO saves. Returned as JSON for BENCH_results.json and printed as a
   section of the full run. *)
let plan_cache_measurements ?(repeats = 5) () =
  let qs = List.map snd Q.all in
  let pc = Plancache.create () in
  let total os =
    List.fold_left (fun acc (o : Plancache.outcome) -> acc +. o.Plancache.opt_seconds) 0. os
  in
  let cold = Plancache.optimize_all pc cat qs in
  let warm_passes = List.init repeats (fun _ -> Plancache.optimize_all pc cat qs) in
  let cold_seconds = total cold in
  let warm_seconds =
    List.fold_left (fun acc p -> acc +. total p) 0. warm_passes /. float_of_int repeats
  in
  let shared_groups =
    match List.rev cold with
    | last :: _ -> last.Plancache.stats.Engine.groups
    | [] -> 0
  in
  let individual_groups =
    List.fold_left
      (fun acc q -> acc + (Opt.optimize cat q).Opt.stats.Engine.groups)
      0 qs
  in
  let s = Plancache.stats pc in
  let json =
    Json.Obj
      [ ("queries", Json.Int (List.length qs));
        ("repeats", Json.Int repeats);
        ("cold_opt_seconds", Json.float cold_seconds);
        ("warm_opt_seconds", Json.float warm_seconds);
        ( "speedup",
          Json.float (if warm_seconds > 0. then cold_seconds /. warm_seconds else infinity) );
        ( "mqo",
          Json.Obj
            [ ("individual_groups_total", Json.Int individual_groups);
              ("shared_memo_groups", Json.Int shared_groups) ] );
        ("cache", Plancache.stats_json s) ]
  in
  (cold_seconds, warm_seconds, individual_groups, shared_groups, s, json)

let repeated_workload () =
  section "Repeated workload: plan cache and memo-level MQO (beyond the paper)";
  let cold_s, warm_s, individual, shared, s, _json = plan_cache_measurements () in
  Format.printf "cold pass (6 queries, shared memo):  %.6fs@." cold_s;
  Format.printf "warm pass (plan cache, avg of 5):    %.6fs  (%.0fx faster)@." warm_s
    (if warm_s > 0. then cold_s /. warm_s else infinity);
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

(* Provenance overhead and why-not smoke ------------------------------ *)

(* Optimizer wall time on the width-8 chain join with provenance
   recording requested (the replay every explanation runs) vs the
   default unrecorded search, min over interleaved trials. The 5% gate
   is advisory (report-only): the number lands in the history record so
   drifts are visible, but a noisy CI box never fails on it. *)
let provenance_overhead_budget_pct = 5.0

let provenance_overhead ?(trials = 5) () =
  let q = Q.join_chain 8 in
  (* CPU time, not wall time: the diff of two ~0.2s measurements is
     exactly where scheduler jitter would otherwise dominate the
     statistic. *)
  let time provenance =
    Gc.full_major ();
    let t0 = Sys.time () in
    ignore (Opt.optimize ~provenance cat q);
    Sys.time () -. t0
  in
  let on = ref infinity and off = ref infinity in
  for _ = 1 to trials do
    off := Float.min !off (time false);
    on := Float.min !on (time true)
  done;
  let pct = if !off > 0. then 100. *. (!on -. !off) /. !off else Float.nan in
  Format.printf
    "provenance overhead (chain-8, min of %d): on %.4fs vs off %.4fs = %+.1f%%%s@."
    trials !on !off pct
    (if pct > provenance_overhead_budget_pct then
       Printf.sprintf "  WARNING: over the %.0f%% budget (report-only)"
         provenance_overhead_budget_pct
     else "");
  pct

(* Wall seconds of representative why-not classifications (optimize +
   classify), one per death mode — the explanation path must stay
   interactive. *)
let whynot_smoke () =
  let time name options shape =
    let q = if String.length name >= 5 && String.sub name 0 5 = "chain" then Q.join_chain 8 else Q.q1 in
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let replay options = Opt.optimize ~options ~provenance:true cat q in
    (match Provenance.classify ~options ~replay (replay options) shape with
    | Ok _ -> ()
    | Error e -> Format.printf "  why-not smoke %s failed: %s@." name e);
    let dt = Unix.gettimeofday () -. t0 in
    Format.printf "  why-not %-24s %.4fs@." name dt;
    (name, dt)
  in
  [ time "q1-merge-lost" Options.default (Provenance.Force_join "merge");
    time "q1-merge-disabled"
      (Options.disable "merge-join" Options.default)
      (Provenance.Force_join "merge");
    time "chain8-guided-hash-pruned"
      (Options.with_guided Options.default)
      (Provenance.Force_join "hash") ]

(* Bench history: the regression gate's input ------------------------- *)

let git_sha () =
  match Sys.getenv_opt "OODB_GIT_SHA" with
  | Some s when s <> "" -> s
  | _ -> (
    try
      let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
      let line = try input_line ic with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      if line = "" then "unknown" else line
    with _ -> "unknown")

let iso_date () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted -> List.nth sorted (List.length sorted / 2)

(* One schema-versioned record for BENCH_history.jsonl: per-query
   min/median optimization and execution wall times (min over interleaved
   trials, the same noise discipline as the vectorized section), the
   search's memo size and rule work (stable across runs — a drift means
   the optimizer changed, not the machine), and a deterministic
   cold+warm plan-cache sweep whose hit rate is exactly 0.5 when the
   cache works. *)
let history_record ?(trials = 5) ~scale () =
  let d = Lazy.force db in
  let dcat = Db.catalog d in
  let time f =
    Gc.full_major ();
    let t0 = Sys.time () in
    let v = f () in
    (Sys.time () -. t0, v)
  in
  let queries =
    List.map
      (fun (name, q) ->
        let outcome = Opt.optimize dcat q in
        let plan = Opt.plan_exn outcome in
        ignore (Executor.run d plan);
        (* One profiled pass for plan quality; the timing trials below
           stay unprofiled so interposition cost never contaminates them. *)
        let _, _, prof = Profile.run d plan in
        let _, mean_qerror = Feedback.plan_quality prof in
        let opt_times = ref [] and exec_times = ref [] and rows = ref 0 in
        for _ = 1 to trials do
          let dt, _ = time (fun () -> Opt.optimize dcat q) in
          opt_times := dt :: !opt_times;
          let dt, rs = time (fun () -> Executor.run d plan) in
          exec_times := dt :: !exec_times;
          rows := List.length rs
        done;
        { History.q_name = name;
          q_opt_min = List.fold_left Float.min infinity !opt_times;
          q_opt_median = median !opt_times;
          q_exec_min = List.fold_left Float.min infinity !exec_times;
          q_exec_median = median !exec_times;
          q_rows = !rows;
          q_groups = outcome.Opt.stats.Engine.groups;
          q_rules_fired = outcome.Opt.stats.Engine.trule_fired;
          q_mean_qerror = mean_qerror })
      [ ("q1", Q.q1); ("q2", Q.q2); ("q3", Q.q3); ("q4", Q.q4) ]
  in
  let cache_hit_rate =
    let pc = Plancache.create () in
    let qs = List.map snd Q.all in
    ignore (Plancache.optimize_all pc cat qs);
    ignore (Plancache.optimize_all pc cat qs);
    let s = Plancache.stats pc in
    float_of_int s.Plancache.hits /. float_of_int (s.Plancache.hits + s.Plancache.misses)
  in
  { History.r_git_sha = git_sha ();
    r_date = iso_date ();
    r_batch_size = Config.default.Config.batch_size;
    r_cache_hit_rate = cache_hit_rate;
    r_queries = queries;
    r_search_scale = scale;
    r_provenance_overhead_pct = provenance_overhead ();
    r_whynot_smoke = whynot_smoke () }

let history_path () =
  match Sys.getenv_opt "OODB_BENCH_HISTORY" with
  | Some p when p <> "" -> p
  | _ -> "BENCH_history.jsonl"

let append_history ~scale () =
  let r = history_record ~scale () in
  let path = history_path () in
  History.append path r;
  Format.printf "appended %s record %s (%s) to %s@."
    (match Sys.getenv_opt "OODB_BATCH_SIZE" with
    | Some b -> "batch-size-" ^ b
    | None -> "default")
    r.History.r_git_sha r.History.r_date path;
  List.iter
    (fun (q : History.query_rec) ->
      Format.printf "  %-4s opt min %.6fs median %.6fs | exec min %.6fs median %.6fs | %d rows, %d groups@."
        q.History.q_name q.History.q_opt_min q.History.q_opt_median q.History.q_exec_min
        q.History.q_exec_median q.History.q_rows q.History.q_groups)
    r.History.r_queries

(* Optimization-time microbenchmarks ---------------------------------- *)

let bechamel_benchmarks () =
  section "Optimization-time microbenchmarks (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  let mk name ?(options = Options.default) q =
    Test.make ~name (Staged.stage (fun () -> ignore (Opt.optimize ~options cat q)))
  in
  let greedy_cat = cat in
  let tests =
    [ mk "table2/q1-all-rules" Q.q1;
      mk "table2/q1-wo-mat-to-join" ~options:(Options.disable "mat-to-join" Options.default) Q.q1;
      mk "table2/q1-wo-window"
        ~options:(Options.with_assembly_window 1 (Options.disable "mat-to-join" Options.default))
        Q.q1;
      mk "fig8/q2-index-collapse" Q.q2;
      mk "fig9/q2-wo-collapse" ~options:(Options.disable "collapse-index-scan" Options.default)
        Q.q2;
      mk "fig10/q3-enforcer" Q.q3;
      mk "fig12/q4-cost-based" Q.q4;
      Test.make ~name:"fig13/q4-greedy"
        (Staged.stage (fun () -> ignore (Greedy.optimize greedy_cat Q.q4)));
      mk "fig2/multi-path-expression" Q.fig2;
      (let deep =
         Oodb_algebra.Logical.(
           get ~coll:"Cities" ~binding:"c"
           |> mat ~src:"c" ~field:"mayor"
           |> mat ~src:"c" ~field:"country"
           |> mat ~src:"c.country" ~field:"president"
           |> mat ~src:"c.country" ~field:"capital"
           |> select
                [ Oodb_algebra.Pred.atom Oodb_algebra.Pred.Ge
                    (Oodb_algebra.Pred.Field ("c.mayor", "age"))
                    (Oodb_algebra.Pred.Const (Oodb_storage.Value.Int 30)) ])
       in
       mk "stress/four-link-path" deep);
      Test.make ~name:"zql/parse-simplify"
        (Staged.stage (fun () ->
             ignore
               (Zql.Simplify.compile cat
                  {| SELECT c.name FROM c IN Cities WHERE c.mayor.name == "Joe" |}))) ]
  in
  let grouped = Test.make_grouped ~name:"opt" ~fmt:"%s %s" tests in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] grouped in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  Format.printf "%-36s %14s@." "benchmark" "per opt [ms]";
  rows
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, est) ->
         match Analyze.OLS.estimates est with
         | Some [ ns ] -> Format.printf "%-36s %14.3f@." name (ns /. 1e6)
         | _ -> Format.printf "%-36s %14s@." name "-")

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
  let _, _, _, _, _, plan_cache = plan_cache_measurements () in
  let _, vectorized = vectorized_measurements () in
  let _, _, _, _, feedback_loop = feedback_loop_measurements () in
  let json =
    Json.Obj
      [ ("schema_version", Json.Int 1);
        ("table2", table2);
        ("table3", table3);
        ("plan_cache", plan_cache);
        ("vectorized", vectorized);
        ("feedback_loop", feedback_loop);
        ("search_scale", Json.List (List.map History.scale_json scale));
        ("workload", Report.workload_json ~registry reports) ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "wrote %s@." path

let () =
  if Array.exists (fun a -> a = "--search-scale") Sys.argv then exit (search_scale_gate ());
  if Array.exists (fun a -> a = "--history") Sys.argv then begin
    append_history ~scale:(search_scale_measurements ()) ();
    exit 0
  end;
  if Array.exists (fun a -> a = "--json") Sys.argv then begin
    let scale = search_scale () in
    json_results ~scale "BENCH_results.json";
    append_history ~scale ();
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
  vectorized_execution ();
  repeated_workload ();
  feedback_loop ();
  bechamel_benchmarks ();
  json_results ~scale "BENCH_results.json";
  append_history ~scale ();
  Format.printf "@.done.@."
