(* Plan provenance and the why-not observatory.

   The load-bearing invariants:
   - the lineage-replay contract: re-optimizing with only the
     transformation rules recorded in the winner's derivation re-derives
     a plan of Cost.compare-equal cost, for every workload query, on
     both catalogs, under both the exhaustive and the guided search;
   - the three pinned death modes classify as themselves: a disabled
     merge-join is never-derived, the skewed-catalog file scan is
     derived-but-lost (with the io/cpu gap of the feedback-corrected
     index plan), and a hash join on the guided width-8 chain is pruned
     (and stays pruned — guided refusals are never second-guessed);
   - under exhaustive branch-and-bound a prune is a short-circuited
     cost comparison, so classify escalates it via replay to the true
     derived-but-lost gap, and without a replay closure reports the
     candidate prune with the bound in force;
   - the memo export is deterministic: two separate optimizations of
     the same query render bit-identical JSON;
   - recording is on demand: a default optimization (and a plan-cache
     miss) records nothing, the readers then fail loudly (Error) rather
     than fabricating lineage, and a recording run replays the default
     one — same plan, winner cost, search statistics and rule
     counters. *)

module Json = Oodb_util.Json
module Cost = Oodb_cost.Cost
module Catalog = Oodb_catalog.Catalog
module OC = Oodb_catalog.Open_oodb_catalog
module Opt = Open_oodb.Optimizer
module Options = Open_oodb.Options
module Physprop = Open_oodb.Physprop
module Engine = Open_oodb.Model.Engine
module Trules = Open_oodb.Trules
module Db = Oodb_exec.Db
module Q = Oodb_workloads.Queries
module Datagen = Oodb_workloads.Datagen
module Trace = Oodb_obs.Trace
module Profile = Oodb_obs.Profile
module Feedback = Oodb_obs.Feedback
module Provenance = Oodb_obs.Provenance
module Plancache = Oodb_plancache.Plancache

let required = Physprop.empty

let skewed_db = lazy (Datagen.generate_skewed ~scale:0.05 ~buffer_pages:512 ())

(* ------------------------------------------------------------------ *)
(* Lineage side-tables                                                  *)

let test_lineage_basics () =
  let cat = OC.catalog_with_indexes () in
  let outcome = Opt.optimize ~provenance:true cat Q.q1 in
  let memo = outcome.Opt.memo in
  Alcotest.(check bool) "provenance recorded on request" true (Provenance.available outcome);
  let lins = Engine.lineages memo in
  Alcotest.(check bool) "lineage rows were recorded" true (List.length lins > 0);
  (* Every rule-produced mexpr has a parent, and the chain walks back to
     a root intern in finitely many hops. *)
  List.iter
    (fun (l : Engine.lineage) ->
      (match l.Engine.lin_rule with
      | Some _ ->
        Alcotest.(check bool) "rule-produced mexpr has a parent" true
          (l.Engine.lin_parent <> None)
      | None -> ());
      let chain = Engine.rule_chain memo l.Engine.lin_id in
      Alcotest.(check bool) "rule chain is finite" true (List.length chain <= List.length lins))
    lins;
  (* The candidate log saw at least one kept candidate per searched
     group, and the root goal has a recorded winner. *)
  Alcotest.(check bool) "candidate log non-empty" true
    (List.length (Engine.cand_records memo) > 0);
  (match Engine.winner_of memo outcome.Opt.root ~required with
  | Some w -> (
    match w.Engine.cr_disposition with
    | Engine.Kept c ->
      let plan = Opt.plan_exn outcome in
      Alcotest.(check int) "winner record carries the plan's cost" 0
        (Cost.compare c plan.Engine.cost)
    | _ -> Alcotest.fail "root winner not Kept")
  | None -> Alcotest.fail "no winner recorded for the root goal");
  Alcotest.(check int) "nothing dropped at the cap" 0 (Engine.provenance_dropped memo);
  Alcotest.(check bool) "stats count the rows" true
    (outcome.Opt.stats.Engine.prov_records > 0)

(* ------------------------------------------------------------------ *)
(* The lineage-replay invariant                                         *)

let test_lineage_replay () =
  let catalogs = [ ("indexed", OC.catalog_with_indexes ()); ("plain", OC.catalog ()) ] in
  let variants =
    [ ("exhaustive", Options.default); ("guided", Options.with_guided Options.default) ]
  in
  List.iter
    (fun (cname, cat) ->
      List.iter
        (fun (vname, options) ->
          List.iter
            (fun (qname, q) ->
              let label = Printf.sprintf "%s/%s/%s" qname cname vname in
              let outcome = Opt.optimize ~options ~provenance:true cat q in
              let plan = Opt.plan_exn outcome in
              let chain = Provenance.replay_rules outcome ~required in
              (* Disable every transformation rule outside the winner's
                 recorded derivation; the winner must be re-derivable
                 from its own chain alone, at the same cost. *)
              let restricted =
                List.fold_left
                  (fun o name -> if List.mem name chain then o else Options.disable name o)
                  options Trules.names
              in
              let plan' = Opt.plan_exn (Opt.optimize ~options:restricted cat q) in
              Alcotest.(check int)
                (label ^ ": replayed chain re-derives an equal-cost winner")
                0
                (Cost.compare plan.Engine.cost plan'.Engine.cost))
            Q.all)
        variants)
    catalogs

let test_why_tree () =
  let cat = OC.catalog_with_indexes () in
  let outcome = Opt.optimize ~provenance:true cat Q.q1 in
  match Provenance.why outcome ~required with
  | Error e -> Alcotest.fail ("why failed: " ^ e)
  | Ok step ->
    let plan = Opt.plan_exn outcome in
    Alcotest.(check int) "why root carries the winner's cost" 0
      (Cost.compare step.Provenance.ws_cost plan.Engine.cost);
    let rec count (s : Provenance.why_step) =
      1 + List.fold_left (fun n c -> n + count c) 0 s.Provenance.ws_children
    in
    let rec plan_nodes (p : Engine.plan) =
      1 + List.fold_left (fun n c -> n + plan_nodes c) 0 p.Engine.children
    in
    Alcotest.(check int) "why tree mirrors the plan tree" (plan_nodes plan) (count step);
    let rendered = Format.asprintf "%a" (fun ppf s -> Provenance.pp_why ppf s) step in
    Alcotest.(check bool) "transcript names a rule" true
      (String.length rendered > 0)

(* ------------------------------------------------------------------ *)
(* The three pinned death modes                                         *)

let verdict_of label cl =
  match cl with
  | Ok c -> c.Provenance.cl_verdict
  | Error e -> Alcotest.fail (label ^ ": classify failed: " ^ e)

let test_whynot_never_derived () =
  let cat = OC.catalog_with_indexes () in
  let options = Options.disable "merge-join" Options.default in
  let outcome = Opt.optimize ~options ~provenance:true cat Q.q1 in
  let replay options = Opt.optimize ~options ~provenance:true cat Q.q1 in
  match
    verdict_of "never-derived"
      (Provenance.classify ~options ~replay outcome (Provenance.Force_join "merge"))
  with
  | Provenance.Never_derived { rules; disabled } ->
    Alcotest.(check bool) "producing rule named" true (List.mem "merge-join" rules);
    Alcotest.(check bool) "disabled rule identified" true (List.mem "merge-join" disabled)
  | v -> Alcotest.fail ("expected never-derived, got " ^ Provenance.verdict_label v)

let test_whynot_derived_but_lost () =
  (* The PR-7 pinned plan flip, asked the other way around: after one
     harvested execution corrects the skewed statistics, the optimizer
     picks the index scan — so why not the file scan it used to pick?
     Answer: derived, completed, and lost on estimated cost. *)
  let db = Lazy.force skewed_db in
  let cat = Db.catalog db in
  let cold = Opt.plan_exn (Opt.optimize cat Q.fred) in
  Alcotest.(check bool) "cold plan full-scans" true
    (List.mem "file-scan" (List.map Helpers.alg_label (Helpers.algs cold)));
  let _, _, prof = Profile.run db cold in
  let store = Feedback.create cat in
  let harvested = Feedback.harvest store Options.default.Options.config cat prof in
  Alcotest.(check bool) "statistics harvested" true (harvested >= 2);
  let options = Feedback.install store Options.default in
  let outcome = Opt.optimize ~options ~provenance:true cat Q.fred in
  Alcotest.(check bool) "corrected plan uses the index" true
    (List.mem "index-scan"
       (List.map Helpers.alg_label (Helpers.algs (Opt.plan_exn outcome))));
  let replay options = Opt.optimize ~options ~provenance:true cat Q.fred in
  match
    verdict_of "derived-but-lost"
      (Provenance.classify ~options ~replay outcome (Provenance.Force_scan "Employees"))
  with
  | Provenance.Derived_but_lost { alt_cost; winner_cost; gap; _ } ->
    Alcotest.(check bool) "the losing subtree costs more" true
      (Cost.compare alt_cost winner_cost > 0);
    let r = gap.Cost.d_ratio in
    (* The estimate-based gap on this catalog measures ~6x (the
       measured-actuals gap in EXPERIMENTS.md is 11.6x); pin the order
       of magnitude, not the digit. *)
    Alcotest.(check bool)
      (Printf.sprintf "gap ratio %.1fx is a real gap" r)
      true
      (r > 2.0 && r < 50.0)
  | v -> Alcotest.fail ("expected derived-but-lost, got " ^ Provenance.verdict_label v)

let test_whynot_pruned () =
  let cat = OC.catalog_with_indexes () in
  let q = Q.join_chain 8 in
  let options = Options.with_guided Options.default in
  let outcome = Opt.optimize ~options ~provenance:true cat q in
  let replay options = Opt.optimize ~options ~provenance:true cat q in
  match
    verdict_of "pruned"
      (Provenance.classify ~options ~replay outcome (Provenance.Force_join "hash"))
  with
  | Provenance.Pruned_away { limit; mode; _ } ->
    (* Guided refusals are reported as refusals even though a replay
       closure was supplied — the escalation is exhaustive-mode only. *)
    Alcotest.(check bool) "a real bound was in force" true (Cost.is_finite limit);
    Alcotest.(check bool) "prune mode recorded" true
      (mode = "candidate" || mode = "subgoal")
  | v -> Alcotest.fail ("expected pruned, got " ^ Provenance.verdict_label v)

let test_whynot_escalation () =
  (* Under exhaustive branch-and-bound the merge join on q1 is cut off
     by the bound mid-derivation; classify must not report that
     short-circuit as the answer but replay without pruning and return
     the completed cost gap. *)
  let cat = OC.catalog_with_indexes () in
  let outcome = Opt.optimize ~provenance:true cat Q.q1 in
  let replay options = Opt.optimize ~options ~provenance:true cat Q.q1 in
  (match
     verdict_of "escalated"
       (Provenance.classify ~options:Options.default ~replay outcome
          (Provenance.Force_join "merge"))
   with
  | Provenance.Derived_but_lost { gap; _ } ->
    let r = gap.Cost.d_ratio in
    Alcotest.(check bool)
      (Printf.sprintf "escalated gap ratio %.2fx sane" r)
      true
      (r > 1.0 && r < 10.0)
  | v -> Alcotest.fail ("expected escalated derived-but-lost, got " ^ Provenance.verdict_label v));
  (* Without the replay closure the same question stays a prune report,
     with the bound that cut the merge join off — classify never
     re-optimizes on its own. *)
  match
    verdict_of "unescalated"
      (Provenance.classify ~options:Options.default outcome (Provenance.Force_join "merge"))
  with
  | Provenance.Pruned_away { limit; mode; _ } ->
    Alcotest.(check string) "pruned as a candidate" "candidate" mode;
    Alcotest.(check bool) "a real bound was in force" true (Cost.is_finite limit)
  | v ->
    Alcotest.fail
      ("expected pruned without a replay closure, got " ^ Provenance.verdict_label v)

let test_whynot_chosen () =
  let cat = OC.catalog_with_indexes () in
  let outcome = Opt.optimize ~provenance:true cat Q.q1 in
  let plan = Opt.plan_exn outcome in
  let shape = Provenance.shape_of_alg plan.Engine.alg in
  match verdict_of "chosen" (Provenance.classify outcome shape) with
  | Provenance.Chosen { cost } ->
    Alcotest.(check int) "chosen at the winner's cost" 0 (Cost.compare cost plan.Engine.cost)
  | v -> Alcotest.fail ("expected chosen, got " ^ Provenance.verdict_label v)

(* ------------------------------------------------------------------ *)
(* Memo export                                                          *)

let test_memo_determinism () =
  let cat = OC.catalog_with_indexes () in
  let render () =
    let outcome = Opt.optimize ~provenance:true cat Q.q2 in
    Json.to_string (Provenance.memo_json outcome ~required)
  in
  let a = render () and b = render () in
  Alcotest.(check bool) "two optimizations render bit-identical memo JSON" true
    (String.equal a b);
  let outcome = Opt.optimize ~provenance:true cat Q.q2 in
  let dot = Provenance.memo_dot outcome ~required in
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("dot contains " ^ needle) true (contains dot needle))
    [ "digraph memo"; "color=red"; "style=dashed" ]

(* ------------------------------------------------------------------ *)
(* Recording on demand: off by default, loud when absent, a replay     *)

(* One text per zqlbench adhoc-join template, with fixed constants. *)
let adhoc_texts =
  [ ( "emp-dept-job",
      {|SELECT e.name, d.name, j.name FROM e IN Employees, d IN Departments, j IN Jobs WHERE e.dept == d && e.job == j && d.floor == 3 && j.level == 4|}
    );
    ( "city-person-country",
      {|SELECT c.name, p.name, n.name FROM c IN Cities, p IN Persons, n IN Countries WHERE c.mayor == p && c.country == n && p.age > 60 && c.population < 250000|}
    );
    ( "emp-dept",
      {|SELECT e.name, d.name FROM e IN Employees, d IN Departments WHERE e.dept == d && d.floor == 7 && e.salary > 50000.0|}
    );
    ( "city-mat-chain",
      {|SELECT c.name, c.mayor.name FROM c IN Cities WHERE c.mayor.age == 45 && c.country.capital.population > 800000 && c.population < 400000|}
    );
    ( "task-unnest",
      {|SELECT t.name, m.name FROM t IN Tasks, m IN t.team_members WHERE t.time < 300 && m.age == 30 && m.dept.floor == 2|}
    ) ]

let test_default_records_nothing () =
  let cat = OC.catalog_with_indexes () in
  let outcome = Opt.optimize cat Q.q2 in
  Alcotest.(check int) "Optimizer.optimize: no rows recorded" 0
    outcome.Opt.stats.Engine.prov_records;
  Alcotest.(check bool) "Optimizer.optimize: lineage not available" false
    (Provenance.available outcome);
  let pc = Plancache.create () in
  let miss = Plancache.optimize pc cat Q.q2 in
  Alcotest.(check bool) "a cold plan-cache lookup misses" false miss.Plancache.cached;
  Alcotest.(check int) "Plancache.optimize miss: no rows recorded" 0
    miss.Plancache.stats.Engine.prov_records

let test_provenance_off () =
  let cat = OC.catalog_with_indexes () in
  let outcome = Opt.optimize cat Q.q1 in
  Alcotest.(check bool) "not available" false (Provenance.available outcome);
  Alcotest.(check int) "no rows recorded" 0 outcome.Opt.stats.Engine.prov_records;
  (match Provenance.why outcome ~required with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "why fabricated lineage with provenance off");
  match Provenance.classify outcome (Provenance.Force_join "merge") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "classify fabricated a verdict with provenance off"

(* The recording run is a replay: the search is deterministic and the
   side-tables only observe it. *)
let test_recording_replays_default () =
  let cat = OC.catalog_with_indexes () in
  let queries =
    [ ("q1", Q.q1); ("q2", Q.q2); ("q3", Q.q3); ("q4", Q.q4) ]
    @ List.map (fun (name, text) -> (name, Zql.Simplify.compile_exn cat text)) adhoc_texts
  in
  let search_counts (s : Engine.stats) =
    [ s.Engine.groups; s.Engine.mexprs; s.Engine.trule_fired; s.Engine.trule_tried;
      s.Engine.candidates; s.Engine.pruned_candidates; s.Engine.pruned_subgoals;
      s.Engine.enforcer_uses; s.Engine.phys_memo_hits; s.Engine.closure_steps;
      Bool.to_int s.Engine.closure_complete ]
  in
  let rules o =
    List.map
      (fun (name, tried, fired) -> Printf.sprintf "%s %d/%d" name tried fired)
      (Engine.rule_counters o.Opt.memo)
  in
  List.iter
    (fun (label, q) ->
      let plain = Opt.optimize cat q in
      let recorded = Opt.optimize ~provenance:true cat q in
      Alcotest.(check bool) (label ^ ": recording run recorded") true
        (recorded.Opt.stats.Engine.prov_records > 0);
      let p = Opt.plan_exn plain and p' = Opt.plan_exn recorded in
      Alcotest.(check string) (label ^ ": same plan")
        (Format.asprintf "%a" Engine.pp_plan p)
        (Format.asprintf "%a" Engine.pp_plan p');
      Alcotest.(check int) (label ^ ": Cost.compare-equal winners") 0
        (Cost.compare p.Engine.cost p'.Engine.cost);
      Alcotest.(check (list int)) (label ^ ": same search statistics")
        (search_counts plain.Opt.stats) (search_counts recorded.Opt.stats);
      Alcotest.(check (list string)) (label ^ ": same rule counters") (rules plain)
        (rules recorded))
    queries

(* ------------------------------------------------------------------ *)
(* Cost deltas and drop-count surfacing                                 *)

let test_cost_delta () =
  let winner = Cost.make ~io:1.0 ~cpu:1.0 in
  let loser = Cost.make ~io:3.0 ~cpu:2.0 in
  let d = Cost.delta ~winner ~loser in
  Alcotest.(check (float 1e-9)) "io gap" 2.0 d.Cost.d_io;
  Alcotest.(check (float 1e-9)) "cpu gap" 1.0 d.Cost.d_cpu;
  Alcotest.(check (float 1e-9)) "total gap" 3.0 d.Cost.d_total;
  Alcotest.(check (float 1e-9)) "ratio" 2.5 d.Cost.d_ratio

let test_trace_prov_dropped () =
  let tr = Trace.create () in
  Trace.sink tr (Engine.Group_created { group = 0 });
  let j = Trace.to_json ~prov_dropped:3 ~rules:[] tr in
  (match Json.member "prov_dropped" j with
  | Some (Json.Int 3) -> ()
  | _ -> Alcotest.fail "prov_dropped missing from trace JSON");
  (match Json.member "prov_dropped_warning" j with
  | Some (Json.String _) -> ()
  | _ -> Alcotest.fail "prov_dropped_warning missing");
  (* No warning when nothing was dropped. *)
  match Json.member "prov_dropped_warning" (Trace.to_json ~rules:[] tr) with
  | None -> ()
  | Some _ -> Alcotest.fail "warning present with zero drops"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "provenance"
    [ ( "lineage",
        [ Alcotest.test_case "side-tables and winner records" `Quick test_lineage_basics;
          Alcotest.test_case "replay invariant over the workload" `Slow test_lineage_replay;
          Alcotest.test_case "why tree mirrors the winner" `Quick test_why_tree ] );
      ( "why-not",
        [ Alcotest.test_case "never-derived under a disabled rule" `Quick
            test_whynot_never_derived;
          Alcotest.test_case "derived-but-lost on the skewed catalog" `Slow
            test_whynot_derived_but_lost;
          Alcotest.test_case "pruned under the guided chain-8 search" `Slow test_whynot_pruned;
          Alcotest.test_case "exhaustive prunes escalate via replay" `Quick
            test_whynot_escalation;
          Alcotest.test_case "the winner's own shape is chosen" `Quick test_whynot_chosen ] );
      ( "export",
        [ Alcotest.test_case "memo JSON is deterministic" `Quick test_memo_determinism ] );
      ( "isolation",
        [ Alcotest.test_case "default and cache-miss optimizations record nothing" `Quick
            test_default_records_nothing;
          Alcotest.test_case "off by default is loud" `Quick test_provenance_off;
          Alcotest.test_case "recording run replays the default run" `Quick
            test_recording_replays_default ] );
      ( "surfacing",
        [ Alcotest.test_case "cost delta decomposition" `Quick test_cost_delta;
          Alcotest.test_case "trace JSON carries drop counts" `Quick test_trace_prov_dropped ] ) ]
