(* The performance observatory: hierarchical spans (Chrome trace-event
   export), latency histograms with exact degenerate-case percentiles,
   and the benchmark history with its regression gate.

   The load-bearing invariants:
   - a collected span stream is well-formed (every [`E] closes the most
     recent unmatched [`B] of the same name, nothing left open), for
     every query at every batch granularity;
   - per-operator span durations, paired up by the ["op_id"] argument,
     sum to the profiler's own inclusive wall times (the two share the
     exact same readings of the collector's clock);
   - a history record is zqlbench's result line, exactly as printed,
     and the gate judges end-to-end metrics by BENCHMARK.json's bounds:
     it flags a move past a bound, a rise in the failed share and wrong
     answers, and never a per-layer metric. *)

module Json = Oodb_util.Json
module Span = Oodb_obs.Span
module Metrics = Oodb_obs.Metrics
module Trace = Oodb_obs.Trace
module Profile = Oodb_obs.Profile
module History = Oodb_obs.History
module Plancache = Oodb_plancache.Plancache
module Opt = Open_oodb.Optimizer
module Engine = Open_oodb.Model.Engine
module Db = Oodb_exec.Db
module Q = Oodb_workloads.Queries

(* ------------------------------------------------------------------ *)
(* Histogram percentiles                                                *)

let hist_of samples =
  let m = Metrics.create () in
  List.iter (Metrics.observe_hist m "h") samples;
  match Metrics.find (Metrics.snapshot m) "h" with
  | Some (Metrics.Histogram h) -> h
  | _ -> Alcotest.fail "histogram missing from snapshot"

let pct h q =
  match Metrics.percentile h q with
  | Some v -> v
  | None -> Alcotest.fail "percentile of non-empty histogram was None"

let test_hist_exact_percentiles () =
  (* One sample: every percentile is that sample, exactly. *)
  let h = hist_of [ 0.005 ] in
  List.iter
    (fun q ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "single sample p%.0f" (q *. 100.))
        0.005 (pct h q))
    [ 0.5; 0.95; 0.99; 1.0 ];
  (* All equal: clamping into [min, max] makes the bucket bound exact. *)
  let h = hist_of (List.init 10 (fun _ -> 0.003)) in
  List.iter
    (fun q ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "all-equal p%.0f" (q *. 100.))
        0.003 (pct h q))
    [ 0.5; 0.95; 0.99 ];
  (* A sample beyond the top bucket bound lands in the overflow bucket,
     whose bound is infinity — the clamp to the exact max rescues it. *)
  let h = hist_of [ 1e9 ] in
  Alcotest.(check (float 0.)) "overflow sample p99 is the exact max" 1e9
    (pct h 0.99);
  (* An empty histogram has no percentiles at all. *)
  let empty =
    { Metrics.count = 0;
      sum = 0.;
      min = infinity;
      max = neg_infinity;
      counts = Array.make (Array.length Metrics.bucket_bounds) 0 }
  in
  Alcotest.(check bool) "empty histogram p50 is None" true
    (Metrics.percentile empty 0.5 = None);
  Alcotest.(check bool) "overflow bucket bound is infinite" true
    (Metrics.bucket_bounds.(Array.length Metrics.bucket_bounds - 1) = infinity)

let test_hist_monotone_and_bounded () =
  let samples = [ 1e-5; 3e-5; 2e-4; 0.001; 0.004; 0.004; 0.02; 0.1; 0.5; 2.0 ] in
  let h = hist_of samples in
  let p50 = pct h 0.5 and p95 = pct h 0.95 and p99 = pct h 0.99 in
  Alcotest.(check int) "count" (List.length samples) h.Metrics.count;
  Alcotest.(check (float 0.)) "max exact" 2.0 h.Metrics.max;
  Alcotest.(check (float 0.)) "min exact" 1e-5 h.Metrics.min;
  Alcotest.(check bool) "p50 <= p95" true (p50 <= p95);
  Alcotest.(check bool) "p95 <= p99" true (p95 <= p99);
  Alcotest.(check bool) "p99 <= max" true (p99 <= h.Metrics.max);
  Alcotest.(check bool) "p50 >= min" true (p50 >= h.Metrics.min)

(* ------------------------------------------------------------------ *)
(* Span well-formedness across the whole pipeline                       *)

(* Run the full pipeline — cache-routed optimization then profiled
   execution — with one collector threaded through both. *)
let traced_pipeline ?registry ~batch_size q =
  let db = Lazy.force Helpers.small_db in
  let spans = Span.create () in
  let cache = Plancache.create () in
  let outcome =
    Span.with_span (Some spans) ~cat:"pipeline" "optimize" (fun () ->
        Plancache.optimize ~spans cache (Db.catalog db) q)
  in
  let plan = match outcome.Plancache.plan with
    | Some p -> p
    | None -> Alcotest.fail "no plan"
  in
  let config = { Oodb_cost.Config.default with Oodb_cost.Config.batch_size } in
  let _, _, prof =
    Span.with_span (Some spans) ~cat:"pipeline" "execute" (fun () ->
        Profile.run ~config ~spans ?registry db plan)
  in
  (spans, prof)

let test_span_well_formed () =
  List.iter
    (fun batch_size ->
      List.iter
        (fun (name, q) ->
          let spans, _ = traced_pipeline ~batch_size q in
          let lbl s = Printf.sprintf "%s (batch %d): %s" name batch_size s in
          (match Span.well_formed spans with
          | Ok () -> ()
          | Error e -> Alcotest.fail (lbl "not well-formed: " ^ e));
          Alcotest.(check int) (lbl "no span left open") 0 (Span.depth spans);
          Alcotest.(check bool) (lbl "spans recorded") true (Span.count spans > 0))
        [ ("q1", Q.q1); ("q2", Q.q2); ("q3", Q.q3); ("q4", Q.q4) ])
    [ 1; 64 ]

let test_span_covers_pipeline_phases () =
  let spans, _ = traced_pipeline ~batch_size:64 Q.q2 in
  let names =
    List.fold_left
      (fun acc (e : Span.event) ->
        if e.Span.ev_ph = `B then (e.Span.ev_name, e.Span.ev_cat) :: acc else acc)
      [] (Span.events spans)
  in
  List.iter
    (fun (name, cat) ->
      Alcotest.(check bool)
        (Printf.sprintf "span %s (cat %s) present" name cat)
        true
        (List.mem (name, cat) names))
    [ ("optimize", "pipeline");
      ("fingerprint", "plancache");
      ("cache-lookup", "plancache");
      ("intern", "volcano");
      ("logical-closure", "volcano");
      ("physical-search", "volcano");
      ("execute", "pipeline") ]

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                            *)

let test_chrome_export_balanced () =
  let spans, _ = traced_pipeline ~batch_size:64 Q.q1 in
  let chrome = Span.to_chrome spans in
  (* The export must survive a serialization round-trip... *)
  let chrome =
    match Json.of_string (Json.to_string ~minify:true chrome) with
    | Ok v -> v
    | Error e -> Alcotest.fail ("chrome JSON does not re-parse: " ^ e)
  in
  (match Json.member "displayTimeUnit" chrome with
  | Some (Json.String "ms") -> ()
  | _ -> Alcotest.fail "displayTimeUnit missing");
  let events =
    match Option.bind (Json.member "traceEvents" chrome) Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "traceEvents missing"
  in
  Alcotest.(check int) "one JSON event per recorded event"
    (Span.count spans) (List.length events);
  (* ...and every [E] must close the most recent unmatched [B] of the
     same name — checked on the exported form, stack-walking by hand. *)
  let stack = ref [] in
  let str m e = match Json.member m e with
    | Some (Json.String s) -> s
    | _ -> Alcotest.fail (m ^ " missing")
  in
  let last_ts = ref neg_infinity in
  List.iter
    (fun e ->
      let ts = match Option.bind (Json.member "ts" e) Json.to_float with
        | Some ts -> ts
        | None -> Alcotest.fail "ts missing"
      in
      Alcotest.(check bool) "timestamps non-decreasing" true (ts >= !last_ts);
      last_ts := ts;
      (match Json.member "pid" e, Json.member "tid" e with
      | Some (Json.Int _), Some (Json.Int _) -> ()
      | _ -> Alcotest.fail "pid/tid missing");
      match str "ph" e with
      | "B" ->
        Alcotest.(check bool) "B has a category" true (str "cat" e <> "");
        stack := str "name" e :: !stack
      | "E" -> (
        match !stack with
        | top :: rest ->
          Alcotest.(check string) "E closes the innermost B" top (str "name" e);
          stack := rest
        | [] -> Alcotest.fail "E with no open B")
      | ph -> Alcotest.fail ("unexpected phase " ^ ph))
    events;
  Alcotest.(check int) "all spans closed" 0 (List.length !stack)

(* ------------------------------------------------------------------ *)
(* Spans agree with the profiler                                        *)

let test_spans_agree_with_profiler () =
  List.iter
    (fun batch_size ->
      let spans, prof = traced_pipeline ~batch_size Q.q3 in
      (* Pair B/E events by stack walk; bucket durations by the op_id
         argument carried on executor B events. *)
      let by_op = Hashtbl.create 16 in
      let stack = ref [] in
      List.iter
        (fun (e : Span.event) ->
          match e.Span.ev_ph with
          | `B -> stack := e :: !stack
          | `E -> (
            match !stack with
            | b :: rest ->
              stack := rest;
              (match Option.bind (List.assoc_opt "op_id" b.Span.ev_args) Json.to_int with
              | Some id ->
                let prev = Option.value ~default:0.0 (Hashtbl.find_opt by_op id) in
                Hashtbl.replace by_op id (prev +. (e.Span.ev_ts -. b.Span.ev_ts))
              | None -> ())
            | [] -> Alcotest.fail "unbalanced span stream"))
        (Span.events spans);
      (* Inclusive wall time per profile node must equal the summed span
         durations for that op_id. Both sides are built from the same
         clock readings; only the epoch subtraction can wobble. *)
      let rec walk (n : Profile.node) =
        let spanned = Option.value ~default:0.0 (Hashtbl.find_opt by_op n.Profile.op_id) in
        Alcotest.(check (float 1e-6))
          (Printf.sprintf "batch %d, op %d (%s): span time == profiler wall time"
             batch_size n.Profile.op_id
             (Open_oodb.Physical.to_string n.Profile.alg))
          n.Profile.wall_seconds spanned;
        List.iter walk n.Profile.children
      in
      walk prof)
    [ 1; 64 ]

(* A collector built the way the ZQL-to-rows benchmark builds its own,
   on the monotonic clock: the profiler's operator spans must land on
   its timeline, inside the span that encloses the execution. *)
let test_profile_on_collector_clock () =
  let db = Lazy.force Helpers.small_db in
  let plan = Opt.plan_exn (Opt.optimize (Db.catalog db) Q.q1) in
  let spans = Span.create ~clock:(fun () -> Int64.to_float (Monotonic_clock.now ()) *. 1e-9) () in
  ignore (Span.with_span (Some spans) ~cat:"bench" "exec" (fun () -> Profile.run ~spans db plan));
  let events = Span.events spans in
  let first = List.hd events and last = List.nth events (List.length events - 1) in
  Alcotest.(check (pair string string)) "the enclosing span opens and closes the stream"
    ("exec", "exec") (first.Span.ev_name, last.Span.ev_name);
  Alcotest.(check bool) "operator spans recorded" true (List.length events > 2);
  ignore
    (List.fold_left
       (fun prev (e : Span.event) ->
         let ts = e.Span.ev_ts in
         if ts < prev || ts < first.Span.ev_ts || ts > last.Span.ev_ts then
           Alcotest.failf "%s at %.6fs: outside [%.6f, %.6f] or before %.6f" e.Span.ev_name ts
             first.Span.ev_ts last.Span.ev_ts prev;
         ts)
       neg_infinity events)

let test_batch_rows_histogram () =
  let registry = Metrics.create () in
  let _, prof = traced_pipeline ~registry ~batch_size:64 Q.q1 in
  match Metrics.find (Metrics.snapshot registry) "exec/batch_rows" with
  | Some (Metrics.Histogram h) ->
    Alcotest.(check bool) "batches observed" true (h.Metrics.count > 0);
    Alcotest.(check bool) "max batch bounded by batch size" true
      (h.Metrics.max <= 64.0);
    ignore prof
  | _ -> Alcotest.fail "exec/batch_rows histogram missing"

(* ------------------------------------------------------------------ *)
(* Bench history                                                        *)

(* A saved zqlbench stdout, as bench-record reads it: the traffic line
   names the workload and seed, and the last line is the result. *)
let capture =
  {|traffic: workload=lookup-hot seed=1 ops=12603 queries=12597 stat_writes=6 distinct_texts=200
traffic: per_template mayor-name=4199 employee-name=3150 task-time=4199 paper-q4=1049
checks: 200 distinct texts checked against the reference, 127 non-empty
qps                                         13438.5 1/s
{"correct": true, "attempted": 12803, "failed": 0, "metrics": {"qps": {"value": 13438.499394085928, "unit": "1/s"}, "latency_p50_ms": {"value": 0.035270997614134103, "unit": "ms"}, "latency_p90_ms": {"value": 0.17061700054910034, "unit": "ms"}, "setup_s": {"value": 0.26896503700118046, "unit": "s"}, "peak_heap_mb": {"value": 175.36778259277344, "unit": "MB"}, "sim_disk_s_per_query": {"value": 1.2982103192211016, "unit": "s"}}}
|}

let record_of ?(sha = "abc1234") text =
  match History.of_capture ~sha ~date:"2026-10-18T12:00:00Z" text with
  | Ok r -> r
  | Error e -> Alcotest.fail ("capture rejected: " ^ e)

let test_history_roundtrip () =
  let r = record_of capture in
  Alcotest.(check string) "workload" "lookup-hot" r.History.workload;
  Alcotest.(check int) "seed" 1 r.History.seed;
  Alcotest.(check (list string)) "every end-to-end metric, by name"
    [ "latency_p50_ms"; "latency_p90_ms"; "peak_heap_mb"; "qps"; "setup_s";
      "sim_disk_s_per_query" ]
    (List.map fst r.History.metrics);
  Alcotest.(check bool) "qps exactly as printed" true
    (List.assoc "qps" r.History.metrics = (13438.499394085928, "1/s"));
  let line = Json.to_string ~minify:true (History.to_json r) in
  match Result.bind (Json.of_string line) History.of_json with
  | Ok r' -> Alcotest.(check bool) "record survives a history line" true (r = r')
  | Error e -> Alcotest.fail ("round-trip failed: " ^ e)

let test_history_capture () =
  let lines = String.split_on_char '\n' (String.trim capture) in
  let without p = String.concat "\n" (List.filter (fun l -> not (p l)) lines) in
  let rejected label text =
    match History.of_capture ~sha:"x" ~date:"d" text with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (label ^ " accepted")
  in
  rejected "a capture without a traffic line"
    (without (String.starts_with ~prefix:"traffic: workload="));
  rejected "a capture without a final JSON line"
    (without (String.starts_with ~prefix:"{"));
  rejected "an empty capture" ""

let test_history_load () =
  let line r = Json.to_string ~minify:true (History.to_json r) in
  let a = record_of ~sha:"aaa" capture and b = record_of ~sha:"bbb" capture in
  let path = Filename.temp_file "oodb_bench" ".jsonl" in
  let write text = Out_channel.with_open_text path (fun oc -> output_string oc text) in
  write (line a ^ "\n\n" ^ line b ^ "\n");
  (match History.load path with
  | Ok [ a'; b' ] ->
    Alcotest.(check (list string)) "oldest first, blank lines skipped" [ "aaa"; "bbb" ]
      [ a'.History.sha; b'.History.sha ]
  | Ok l -> Alcotest.failf "expected 2 records, got %d" (List.length l)
  | Error e -> Alcotest.fail ("load failed: " ^ e));
  (* A line that is not a record fails the load with its line number. *)
  write (line a ^ "\n\n" ^ line b ^ "\n{\"schema_version\": 4}\n");
  (match History.load path with
  | Error e ->
    Alcotest.(check bool) (Printf.sprintf "error names line 4 (%s)" e) true
      (String.starts_with ~prefix:(path ^ ":4:") e)
  | Ok _ -> Alcotest.fail "a bad line was accepted");
  Sys.remove path

let scale m f (r : History.record) =
  { r with
    History.metrics =
      List.map (fun (n, (v, u)) -> if n = m then (n, (f v, u)) else (n, (v, u))) r.History.metrics }

let test_history_gate () =
  let bounds =
    match History.bounds "../BENCHMARK.json" with
    | Ok b -> b
    | Error e -> Alcotest.fail ("BENCHMARK.json: " ^ e)
  in
  let untraced = record_of ~sha:"old" capture in
  let traced =
    { untraced with
      History.metrics = [ ("exec.share", (0.6, "ratio")); ("zql.compile_us", (5.0, "us")) ] }
  in
  let baseline = [ untraced; traced ] in
  let gate label candidate =
    let c = History.compare ~bounds ~baseline ~candidate in
    (label, History.regressed c, c)
  in
  let expect (label, regressed, _) want = Alcotest.(check bool) label want regressed in
  let (_, _, c) as same = gate "identical records" baseline in
  expect same false;
  Alcotest.(check int) "every metric and both failed shares compared" 10
    (List.length c.History.c_deltas);
  expect (gate "qps -30%" [ scale "qps" (fun v -> v *. 0.7) untraced ]) true;
  expect (gate "qps -20%" [ scale "qps" (fun v -> v *. 0.8) untraced ]) false;
  expect (gate "latency_p90_ms +30%" [ scale "latency_p90_ms" (fun v -> v *. 1.3) untraced ]) true;
  expect (gate "latency_p90_ms +20%" [ scale "latency_p90_ms" (fun v -> v *. 1.2) untraced ]) false;
  expect (gate "a higher failed share" [ { untraced with History.failed = 3 } ]) true;
  expect (gate "wrong answers" [ { untraced with History.correct = false } ]) true;
  expect
    (gate "a per-layer metric tripled" [ scale "exec.share" (fun v -> v *. 3.) traced ])
    false;
  (* Missing workloads and metrics are listed, not silently skipped. *)
  let report_scan = { untraced with History.workload = "report-scan" } in
  let c =
    History.compare ~bounds ~baseline:(report_scan :: baseline)
      ~candidate:
        [ { traced with
            History.metrics = ("volcano.search_ms", (1.0, "ms")) :: traced.History.metrics } ]
  in
  Alcotest.(check (list string)) "missing workloads listed" [ "report-scan" ] c.History.c_missing;
  Alcotest.(check (list (pair string string))) "metrics without a baseline listed"
    [ ("lookup-hot", "volcano.search_ms") ] c.History.c_unmatched

(* Each side is the median over the runs of its newest commit, so one
   outlying run moves neither side far. [median_gate] compares qps-scaled
   copies of the capture; [qps_runs] reads the printed runs column
   (baseline/candidate records) of the qps line. *)
let median_gate ~baseline ~candidate =
  let bounds =
    match History.bounds "../BENCHMARK.json" with
    | Ok b -> b
    | Error e -> Alcotest.fail ("BENCHMARK.json: " ^ e)
  in
  History.compare ~bounds ~baseline ~candidate

let run ?(sha = "old") f = scale "qps" f (record_of ~sha capture)

let qps_runs c =
  let line =
    String.split_on_char '\n' (Format.asprintf "%a" History.pp_comparison c)
    |> List.find (String.starts_with ~prefix:"lookup-hot   qps ")
  in
  List.nth (List.filter (( <> ) "") (String.split_on_char ' ' line)) 3

let test_history_gate_outlier () =
  let baseline = [ run Fun.id; run (fun v -> v *. 0.7); run Fun.id ] in
  let c = median_gate ~baseline ~candidate:[ run ~sha:"new" Fun.id ] in
  Alcotest.(check bool) "a 30%-low baseline run does not flag the others' level" false
    (History.regressed c);
  Alcotest.(check string) "the medians cover three and one runs" "3/1" (qps_runs c);
  let c =
    median_gate ~baseline:[ run Fun.id ]
      ~candidate:[ run ~sha:"new" Fun.id; run ~sha:"new" Fun.id; run ~sha:"new" (fun v -> v *. 0.7) ]
  in
  Alcotest.(check bool) "nor does a newest candidate run 30% low" false (History.regressed c);
  let c =
    median_gate ~baseline:[ run Fun.id ]
      ~candidate:[ run ~sha:"new" (fun v -> v *. 0.7); run ~sha:"new" (fun v -> v *. 0.7) ]
  in
  Alcotest.(check bool) "a candidate median 30% low is flagged" true (History.regressed c)

(* Only the newest commit's runs count: two older runs at twice the rate
   would lift the baseline median past the bound. *)
let test_history_gate_newest_commit () =
  let older = run ~sha:"older" (fun v -> v *. 2.) in
  let c =
    median_gate ~baseline:[ older; older; run Fun.id ] ~candidate:[ run ~sha:"new" Fun.id ]
  in
  Alcotest.(check bool) "records from an older commit are ignored" false (History.regressed c);
  Alcotest.(check string) "the baseline median covers one run" "1/1" (qps_runs c)

(* ------------------------------------------------------------------ *)
(* Deterministic JSON                                                   *)

let test_json_deterministic () =
  let a =
    Json.Obj
      [ ("zeta", Json.Int 1);
        ("alpha", Json.Obj [ ("b", Json.Bool true); ("a", Json.Null) ]) ]
  and b =
    Json.Obj
      [ ("alpha", Json.Obj [ ("a", Json.Null); ("b", Json.Bool true) ]);
        ("zeta", Json.Int 1) ]
  in
  Alcotest.(check string) "key order does not leak into the rendering"
    (Json.to_string ~minify:true a) (Json.to_string ~minify:true b);
  Alcotest.(check string) "indented rendering agrees too"
    (Json.to_string a) (Json.to_string b)

(* ------------------------------------------------------------------ *)
(* Ring drops are loud                                                  *)

let test_timeline_drop_warning () =
  let tr = Trace.create ~capacity:16 () in
  ignore
    (Opt.optimize ~trace:(Trace.sink tr)
       (Oodb_catalog.Open_oodb_catalog.catalog_with_indexes ())
       Q.q1);
  Alcotest.(check bool) "the tiny ring dropped events" true (Trace.dropped tr > 0);
  let rendered =
    Format.asprintf "%a" (fun ppf tr -> Trace.pp_timeline ppf tr) tr
  in
  Alcotest.(check bool)
    "timeline leads with the drop warning" true
    (String.length rendered >= 8 && String.sub rendered 0 8 = "WARNING:");
  let j = Trace.to_json ~rules:[] tr in
  (match Option.bind (Json.member "dropped" j) Json.to_int with
  | Some n -> Alcotest.(check bool) "top-level dropped count" true (n > 0)
  | None -> Alcotest.fail "top-level dropped missing");
  (match Json.member "dropped_warning" j with
  | Some (Json.String s) ->
    Alcotest.(check bool) "warning mentions the drop count" true
      (String.length s > 0)
  | _ -> Alcotest.fail "dropped_warning missing");
  (* And a ring that kept everything carries no warning. *)
  let quiet = Trace.create () in
  Trace.sink quiet (Engine.Group_created { group = 0 });
  match Json.member "dropped_warning" (Trace.to_json ~rules:[] quiet) with
  | None -> ()
  | Some _ -> Alcotest.fail "dropped_warning present with zero drops"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "observatory"
    [ ( "histograms",
        [ Alcotest.test_case "exact degenerate percentiles" `Quick
            test_hist_exact_percentiles;
          Alcotest.test_case "monotone and bounded" `Quick
            test_hist_monotone_and_bounded ] );
      ( "spans",
        [ Alcotest.test_case "well-formed for q1-q4 at batch 1 and 64" `Quick
            test_span_well_formed;
          Alcotest.test_case "covers every pipeline phase" `Quick
            test_span_covers_pipeline_phases;
          Alcotest.test_case "chrome export balanced and typed" `Quick
            test_chrome_export_balanced;
          Alcotest.test_case "durations agree with the profiler" `Quick
            test_spans_agree_with_profiler;
          Alcotest.test_case "profiler spans on the collector's clock" `Quick
            test_profile_on_collector_clock;
          Alcotest.test_case "batch-rows histogram" `Quick
            test_batch_rows_histogram ] );
      ( "history",
        [ Alcotest.test_case "zqlbench record round-trip" `Quick test_history_roundtrip;
          Alcotest.test_case "bench-record capture parsing" `Quick test_history_capture;
          Alcotest.test_case "load skips blanks, names bad line" `Quick test_history_load;
          Alcotest.test_case "regression gate" `Quick test_history_gate;
          Alcotest.test_case "gate median absorbs an outlier" `Quick test_history_gate_outlier;
          Alcotest.test_case "gate reads the newest commit" `Quick
            test_history_gate_newest_commit ] );
      ( "rendering",
        [ Alcotest.test_case "deterministic JSON" `Quick test_json_deterministic;
          Alcotest.test_case "timeline drop warning" `Quick
            test_timeline_drop_warning ] ) ]
