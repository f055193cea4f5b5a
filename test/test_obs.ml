(* The observability layer: JSON codec, metrics registry, trace ring and
   aggregates, per-operator profiling, and the report builder.

   The two load-bearing invariants:
   - aggregating a search's event stream reproduces the engine's own
     search statistics exactly, and its rule counters summed per rule
     kind, even after the timeline ring wrapped, and
   - per-operator exclusive I/O deltas sum to the whole-query
     [io_report] totals (inclusive measurement telescopes). *)

module Json = Oodb_util.Json
module Ring = Oodb_obs.Ring
module Metrics = Oodb_obs.Metrics
module Trace = Oodb_obs.Trace
module Profile = Oodb_obs.Profile
module Report = Oodb_obs.Report
module Opt = Open_oodb.Optimizer
module Engine = Open_oodb.Model.Engine
module Logical = Oodb_algebra.Logical
module Db = Oodb_exec.Db
module Executor = Oodb_exec.Executor
module Q = Oodb_workloads.Queries

(* ------------------------------------------------------------------ *)
(* JSON                                                                 *)

let test_json_print () =
  let v =
    Json.Obj
      [ ("a", Json.Int 1);
        ("b", Json.List [ Json.Bool true; Json.Null; Json.String "x\"y\n" ]);
        ("c", Json.float 2.5) ]
  in
  Alcotest.(check string)
    "minified" {|{"a":1,"b":[true,null,"x\"y\n"],"c":2.5}|}
    (Json.to_string ~minify:true v);
  Alcotest.(check bool) "indented mentions key" true
    (String.length (Json.to_string v) > String.length "{\"a\":1}")

let test_json_roundtrip () =
  let v =
    Json.Obj
      [ ("name", Json.String "q1");
        ("esc", Json.String "tab\t nl\n quote\" back\\ unicode \xe2\x86\x92");
        ("n", Json.Int (-42));
        ("x", Json.float 0.1);
        ("big", Json.float 1e300);
        ("list", Json.List [ Json.Int 1; Json.Int 2; Json.Int 3 ]);
        ("empty_list", Json.List []);
        ("empty_obj", Json.Obj []);
        ("null", Json.Null);
        ("flag", Json.Bool false) ]
  in
  (* to_string renders object keys sorted, so compare canonically (a
     re-render) rather than structurally; member lookups check values. *)
  let canonical v = Json.to_string ~minify:true v in
  (match Json.of_string (Json.to_string v) with
  | Ok v' ->
    Alcotest.(check string) "indented round-trip" (canonical v) (canonical v');
    Alcotest.(check (option int)) "int survives" (Some (-42))
      (Option.bind (Json.member "n" v') Json.to_int)
  | Error m -> Alcotest.failf "parse failed: %s" m);
  match Json.of_string (Json.to_string ~minify:true v) with
  | Ok v' -> Alcotest.(check string) "minified round-trip" (canonical v) (canonical v')
  | Error m -> Alcotest.failf "parse failed: %s" m

let test_json_parse () =
  (match Json.of_string {| { "u": "Aé", "e": 1.5e2, "neg": -3 } |} with
  | Ok v ->
    Alcotest.(check (option string))
      "unicode escapes decode to UTF-8"
      (Some "A\xc3\xa9")
      (match Json.member "u" v with Some (Json.String s) -> Some s | _ -> None);
    Alcotest.(check (option (float 1e-9)))
      "exponent" (Some 150.0)
      (Option.bind (Json.member "e" v) Json.to_float);
    Alcotest.(check (option int))
      "negative int" (Some (-3))
      (Option.bind (Json.member "neg" v) Json.to_int)
  | Error m -> Alcotest.failf "parse failed: %s" m);
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" bad
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "" ]

let test_json_nonfinite () =
  Alcotest.(check bool) "nan becomes null" true (Json.float Float.nan = Json.Null);
  Alcotest.(check bool) "inf becomes null" true (Json.float Float.infinity = Json.Null)

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)

let test_metrics_basics () =
  let m = Metrics.create () in
  Metrics.incr m "queries";
  Metrics.incr ~by:4 m "queries";
  Metrics.set m "buffer_pages" 256.0;
  Metrics.observe m "opt" 0.5;
  Metrics.observe m "opt" 1.5;
  let snap = Metrics.snapshot m in
  Alcotest.(check bool) "counter" true (Metrics.find snap "queries" = Some (Metrics.Counter 5));
  Alcotest.(check bool) "gauge" true
    (Metrics.find snap "buffer_pages" = Some (Metrics.Gauge 256.0));
  (match Metrics.find snap "opt" with
  | Some (Metrics.Timer { total; count; max }) ->
    Alcotest.(check (float 1e-9)) "timer total" 2.0 total;
    Alcotest.(check int) "timer count" 2 count;
    Alcotest.(check (float 1e-9)) "timer max" 1.5 max
  | _ -> Alcotest.fail "timer missing");
  Alcotest.(check (list string))
    "snapshot sorted by name"
    [ "buffer_pages"; "opt"; "queries" ]
    (List.map fst snap)

let test_metrics_kinds_and_diff () =
  let m = Metrics.create () in
  Metrics.incr m "x";
  Alcotest.check_raises "kind clash raises"
    (Invalid_argument "Metrics: \"x\" is a counter, used as a gauge") (fun () ->
      Metrics.set m "x" 1.0);
  let _, delta =
    Metrics.scoped m (fun () ->
        Metrics.incr ~by:2 m "x";
        Metrics.observe m "t" 1.0)
  in
  Alcotest.(check bool) "scoped counter delta" true
    (Metrics.find delta "x" = Some (Metrics.Counter 2));
  Alcotest.(check bool) "scoped timer delta" true
    (match Metrics.find delta "t" with
    | Some (Metrics.Timer { count = 1; _ }) -> true
    | _ -> false);
  let _, quiet = Metrics.scoped m (fun () -> ()) in
  Alcotest.(check int) "unchanged metrics drop out of the diff" 0 (List.length quiet)

(* ------------------------------------------------------------------ *)
(* Ring                                                                 *)

let test_ring () =
  let r = Ring.create 4 in
  Alcotest.(check int) "capacity" 4 (Ring.capacity r);
  for i = 0 to 9 do
    Ring.push r i
  done;
  Alcotest.(check int) "seen" 10 (Ring.seen r);
  Alcotest.(check int) "length" 4 (Ring.length r);
  Alcotest.(check int) "dropped" 6 (Ring.dropped r);
  Alcotest.(check (list (pair int int)))
    "retains newest with global sequence numbers"
    [ (6, 6); (7, 7); (8, 8); (9, 9) ]
    (Ring.to_list r);
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Ring.create 0))

(* ------------------------------------------------------------------ *)
(* Trace vs the engine's own counters                                   *)

let traced ?capacity q =
  let tr = Trace.create ?capacity () in
  let outcome =
    Opt.optimize ~trace:(Trace.sink tr)
      (Oodb_catalog.Open_oodb_catalog.catalog_with_indexes ())
      q
  in
  (tr, outcome)

let check_totals name (s : Engine.stats) (t : Trace.totals) =
  Alcotest.(check int) (name ^ ": candidates") s.Engine.candidates t.Trace.candidates;
  Alcotest.(check int) (name ^ ": memo hits") s.Engine.phys_memo_hits t.Trace.memo_hits;
  Alcotest.(check int) (name ^ ": trules tried") s.Engine.trule_tried t.Trace.trules_tried;
  Alcotest.(check int) (name ^ ": trules fired") s.Engine.trule_fired t.Trace.trules_fired;
  Alcotest.(check int)
    (name ^ ": enforcer uses") s.Engine.enforcer_uses t.Trace.enforcer_inserts

(* The engine emits one event wherever a rule counter increments: per
   rule kind, tried counts Trule_/Irule_/Enforcer_tried events and fired
   counts Trule_fired / Candidate_costed / Enforcer_offered events. *)
let test_trace_matches_rule_counters () =
  List.iter
    (fun (name, q) ->
      let tr, outcome = traced q in
      let counters = Engine.rule_counters outcome.Opt.memo in
      let sums names =
        List.fold_left
          (fun (tried, fired) (r, t, f) ->
            if List.mem r names then (tried + t, fired + f) else (tried, fired))
          (0, 0) counters
      in
      let t = Trace.totals tr in
      Alcotest.(check (pair int int))
        (name ^ ": transformation counters")
        (t.Trace.trules_tried, t.Trace.trules_fired)
        (sums Open_oodb.Trules.names);
      Alcotest.(check (pair int int))
        (name ^ ": implementation counters")
        (t.Trace.irules_tried, t.Trace.candidates)
        (sums Open_oodb.Irules.names);
      Alcotest.(check (pair int int))
        (name ^ ": enforcer counters")
        (t.Trace.enforcers_tried, t.Trace.enforcer_offers)
        (sums Open_oodb.Enforcers.names);
      check_totals name outcome.Opt.stats t)
    Q.all

let test_trace_ring_bounded_aggregates_exact () =
  (* A tiny ring forces heavy wrap-around; aggregates must not care. *)
  let tr, outcome = traced ~capacity:16 Q.q1 in
  Alcotest.(check int) "window is capacity" 16 (List.length (Trace.events tr));
  Alcotest.(check bool) "events were dropped" true (Trace.dropped tr > 0);
  check_totals "aggregates exact despite drops" outcome.Opt.stats (Trace.totals tr)

(* ------------------------------------------------------------------ *)
(* Profiling                                                            *)

let sum_exclusive prof =
  let rec walk acc (n : Profile.node) =
    List.fold_left walk
      (let e = n.Profile.exclusive in
       let sq, rr, w, bh, bm, be, sim = acc in
       ( sq + e.Profile.seq_reads,
         rr + e.Profile.rand_reads,
         w + e.Profile.writes,
         bh + e.Profile.buffer_hits,
         bm + e.Profile.buffer_misses,
         be + e.Profile.buffer_evictions,
         sim +. e.Profile.simulated_seconds ))
      n.Profile.children
  in
  walk (0, 0, 0, 0, 0, 0, 0.0) prof

let test_profile_deltas_sum_to_totals () =
  let db = Lazy.force Helpers.small_db in
  (* The telescoping invariant must hold for any batch granularity: per
     tuple (size 1) and vectorized (size 64) runs both measure per
     next_batch, and the exclusive deltas still sum exactly. *)
  List.iter
    (fun batch_size ->
      let config = { Oodb_cost.Config.default with Oodb_cost.Config.batch_size } in
      List.iter
        (fun (name, q) ->
          let outcome = Opt.optimize (Db.catalog db) q in
          let plan = Opt.plan_exn outcome in
          let rows, report, prof = Profile.run ~config db plan in
          let sq, rr, w, bh, bm, be, sim = sum_exclusive prof in
          let lbl s = Printf.sprintf "%s (batch %d): %s" name batch_size s in
          Alcotest.(check int) (lbl "rows") (List.length rows) report.Executor.rows;
          Alcotest.(check int) (lbl "seq reads") report.Executor.seq_reads sq;
          Alcotest.(check int) (lbl "rand reads") report.Executor.rand_reads rr;
          Alcotest.(check int) (lbl "writes") report.Executor.writes w;
          Alcotest.(check int) (lbl "buffer hits") report.Executor.buffer_hits bh;
          Alcotest.(check int) (lbl "buffer misses") report.Executor.buffer_misses bm;
          Alcotest.(check int) (lbl "buffer evictions") report.Executor.buffer_evictions be;
          Alcotest.(check (float 1e-6))
            (lbl "simulated seconds") report.Executor.simulated_seconds sim;
          (* profiling must not perturb results or measured totals *)
          let rows', report' = Executor.run_measured ~config db plan in
          Helpers.check_same_rows (lbl "same rows as unprofiled run") rows' rows;
          Alcotest.(check int)
            (lbl "same seq reads as unprofiled run")
            report'.Executor.seq_reads report.Executor.seq_reads)
        [ ("q1", Q.q1); ("q2", Q.q2); ("q3", Q.q3); ("q4", Q.q4) ])
    [ 1; 64 ]

let test_profile_qerror_perfect () =
  (* After refreshing catalog statistics from the stored data, a bare
     extent scan's estimate is the exact collection cardinality, so every
     node of the plan has q-error exactly 1.0. *)
  let db = Lazy.force Helpers.small_db in
  ignore (Oodb_exec.Analyze.refresh db);
  let q = Logical.get ~coll:"Cities" ~binding:"c" in
  let outcome = Opt.optimize (Db.catalog db) q in
  let _, _, prof = Profile.run db (Opt.plan_exn outcome) in
  let rec check (n : Profile.node) =
    Alcotest.(check (float 0.0))
      (Format.asprintf "q-error of %a" Open_oodb.Physical.pp n.Profile.alg)
      1.0 n.Profile.q_error;
    List.iter check n.Profile.children
  in
  check prof

let test_qerror_clamps () =
  Alcotest.(check (float 0.0)) "exact" 1.0 (Profile.q_error ~est:42.0 ~actual:42.0);
  Alcotest.(check (float 0.0)) "both empty" 1.0 (Profile.q_error ~est:0.0 ~actual:0.0);
  Alcotest.(check (float 1e-9)) "2x under" 2.0 (Profile.q_error ~est:50.0 ~actual:100.0);
  Alcotest.(check (float 1e-9)) "2x over" 2.0 (Profile.q_error ~est:100.0 ~actual:50.0)

(* ------------------------------------------------------------------ *)
(* Reports                                                              *)

let test_report_json_parses () =
  let db = Lazy.force Helpers.small_db in
  let registry = Metrics.create () in
  let reports =
    List.map
      (fun (name, q) -> Report.collect ~registry ~trace_capacity:64 db ~name q)
      [ ("q1", Q.q1); ("q4", Q.q4) ]
  in
  let text = Json.to_string (Report.workload_json ~registry reports) in
  match Json.of_string text with
  | Error m -> Alcotest.failf "workload report does not parse: %s" m
  | Ok v ->
    Alcotest.(check (option int))
      "schema version" (Some 1)
      (Option.bind (Json.member "schema_version" v) Json.to_int);
    (match Json.member "queries" v with
    | Some (Json.List qs) ->
      Alcotest.(check int) "one record per query" 2 (List.length qs);
      List.iter
        (fun q ->
          Alcotest.(check bool) "has optimizer section" true
            (Json.member "optimizer" q <> None);
          Alcotest.(check bool) "has execution section" true
            (Json.member "execution" q <> None))
        qs
    | _ -> Alcotest.fail "queries list missing");
    Alcotest.(check bool) "has metrics section" true (Json.member "metrics" v <> None)

let () =
  Alcotest.run "obs"
    [ ( "json",
        [ Alcotest.test_case "printing" `Quick test_json_print;
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "parsing" `Quick test_json_parse;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite ] );
      ( "metrics",
        [ Alcotest.test_case "counters, gauges, timers" `Quick test_metrics_basics;
          Alcotest.test_case "kind safety and scoped diff" `Quick
            test_metrics_kinds_and_diff ] );
      ("ring", [ Alcotest.test_case "bounded with sequence numbers" `Quick test_ring ]);
      ( "trace",
        [ Alcotest.test_case "events reproduce rule counters" `Quick
            test_trace_matches_rule_counters;
          Alcotest.test_case "aggregates exact after wrap-around" `Quick
            test_trace_ring_bounded_aggregates_exact ] );
      ( "profile",
        [ Alcotest.test_case "exclusive deltas sum to io_report" `Quick
            test_profile_deltas_sum_to_totals;
          Alcotest.test_case "perfect estimate has q-error 1.0" `Quick
            test_profile_qerror_perfect;
          Alcotest.test_case "q-error clamps" `Quick test_qerror_clamps ] );
      ( "report",
        [ Alcotest.test_case "workload JSON parses" `Quick test_report_json_parses ] ) ]
