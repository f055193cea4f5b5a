(* The performance observatory: hierarchical spans (Chrome trace-event
   export), latency histograms with exact degenerate-case percentiles,
   and the bench-history regression gate.

   The load-bearing invariants:
   - a collected span stream is well-formed (every [`E] closes the most
     recent unmatched [`B] of the same name, nothing left open), for
     every query at every batch granularity;
   - per-operator span durations, paired up by the ["op_id"] argument,
     sum to the profiler's own inclusive wall times (the two share the
     exact same clock readings);
   - the regression gate flags a genuine 2x slowdown and stays quiet on
     both identical records and sub-floor noise. *)

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
         [Sys.time] readings; only the epoch subtraction can wobble. *)
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

let sample_query name opt exec =
  { History.q_name = name;
    q_opt_min = opt;
    q_opt_median = opt *. 1.1;
    q_exec_min = exec;
    q_exec_median = exec *. 1.2;
    q_rows = 42;
    q_groups = 17;
    q_rules_fired = 23;
    q_mean_qerror = 1.5 }

let sample_scale width opt =
  { History.s_width = width;
    s_opt_seconds = opt;
    s_groups = 1 lsl width;
    s_mexprs = 100 * width;
    s_candidates = 10 * width;
    s_pruned = 5 * width }

let sample_record ?(sha = "abc1234") ?(opt = 0.002) ?(exec = 0.010) () =
  { History.r_git_sha = sha;
    r_date = "2026-08-05T12:00:00Z";
    r_batch_size = 64;
    r_cache_hit_rate = 0.5;
    r_queries = [ sample_query "q1" opt exec; sample_query "q2" opt exec ];
    r_search_scale = [ sample_scale 4 0.01; sample_scale 10 2.0 ];
    r_provenance_overhead_pct = 2.5;
    r_whynot_smoke = [ ("q1-merge-lost", 0.004); ("chain8-hash-lost", 0.12) ] }

let test_history_roundtrip () =
  let r = sample_record () in
  (match History.of_json (History.to_json r) with
  | Ok r' -> Alcotest.(check bool) "record survives to_json/of_json" true (r = r')
  | Error e -> Alcotest.fail ("round-trip failed: " ^ e));
  (* An unprofiled run's nan mean_qerror encodes as null and reads back
     as nan; a v1 record (field absent entirely) reads as nan too. *)
  let q = { (sample_query "q1" 0.002 0.010) with History.q_mean_qerror = Float.nan } in
  let nan_rec = { (sample_record ()) with History.r_queries = [ q ] } in
  (match History.of_json (History.to_json nan_rec) with
  | Ok r' ->
    Alcotest.(check bool) "nan mean_qerror survives as nan" true
      (Float.is_nan (List.hd r'.History.r_queries).History.q_mean_qerror)
  | Error e -> Alcotest.fail ("nan round-trip failed: " ^ e));
  (match History.to_json nan_rec with
  | Json.Obj fields ->
    let v1 =
      Json.Obj
        (List.map
           (function
             | "schema_version", _ -> ("schema_version", Json.Int 1)
             | kv -> kv)
           fields)
    in
    (match History.of_json v1 with
    | Ok r' ->
      Alcotest.(check bool) "v1 record still loads" true
        (Float.is_nan (List.hd r'.History.r_queries).History.q_mean_qerror)
    | Error e -> Alcotest.fail ("v1 record rejected: " ^ e));
    (* A v2 record carries no search_scale; it must load as []. *)
    let v2 =
      Json.Obj
        (List.filter_map
           (function
             | "schema_version", _ -> Some ("schema_version", Json.Int 2)
             | "search_scale", _ -> None
             | kv -> Some kv)
           fields)
    in
    (match History.of_json v2 with
    | Ok r' ->
      Alcotest.(check bool) "v2 record loads with empty search_scale" true
        (r'.History.r_search_scale = [])
    | Error e -> Alcotest.fail ("v2 record rejected: " ^ e));
    (* A v3 record predates the provenance fields; they must load as
       nan / []. *)
    let v3 =
      Json.Obj
        (List.filter_map
           (function
             | "schema_version", _ -> Some ("schema_version", Json.Int 3)
             | ("provenance_overhead_pct" | "whynot_smoke"), _ -> None
             | kv -> Some kv)
           fields)
    in
    (match History.of_json v3 with
    | Ok r' ->
      Alcotest.(check bool) "v3 record loads with nan overhead" true
        (Float.is_nan r'.History.r_provenance_overhead_pct);
      Alcotest.(check bool) "v3 record loads with empty whynot_smoke" true
        (r'.History.r_whynot_smoke = [])
    | Error e -> Alcotest.fail ("v3 record rejected: " ^ e))
  | _ -> Alcotest.fail "to_json is not an object");
  (* Older records' scale rows carry an exhaustive_seconds key (null for
     a width skipped as over budget); the decoder ignores it. *)
  (match History.to_json r with
  | Json.Obj fields ->
    let old_row v =
      match History.scale_json (sample_scale 12 30.0) with
      | Json.Obj row -> Json.Obj (row @ [ ("exhaustive_seconds", v) ])
      | j -> j
    in
    let old =
      Json.Obj
        (List.map
           (function
             | "search_scale", _ ->
               ("search_scale", Json.List [ old_row Json.Null; old_row (Json.float 90.0) ])
             | kv -> kv)
           fields)
    in
    (match History.of_json old with
    | Ok r' ->
      Alcotest.(check bool) "exhaustive_seconds is ignored" true
        (r'.History.r_search_scale = [ sample_scale 12 30.0; sample_scale 12 30.0 ])
    | Error e -> Alcotest.fail ("old scale rows rejected: " ^ e))
  | _ -> Alcotest.fail "to_json is not an object");
  (* Version gate: a record from the future must be rejected. *)
  match History.to_json r with
  | Json.Obj fields ->
    let bumped =
      Json.Obj
        (List.map
           (function
             | "schema_version", _ -> ("schema_version", Json.Int 99)
             | kv -> kv)
           fields)
    in
    (match History.of_json bumped with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "schema_version 99 accepted")
  | _ -> Alcotest.fail "to_json is not an object"

let test_history_append_load () =
  let path = Filename.temp_file "oodb_bench" ".jsonl" in
  History.append path (sample_record ~sha:"aaa" ());
  History.append path (sample_record ~sha:"bbb" ~exec:0.011 ());
  (match History.load path with
  | Ok [ a; b ] ->
    Alcotest.(check string) "first sha" "aaa" a.History.r_git_sha;
    Alcotest.(check string) "second sha" "bbb" b.History.r_git_sha
  | Ok l -> Alcotest.fail (Printf.sprintf "expected 2 records, got %d" (List.length l))
  | Error e -> Alcotest.fail ("load failed: " ^ e));
  (* A corrupt line fails the load with its line number. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"schema_version\": \"nope\"}\n";
  close_out oc;
  (match History.load path with
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "error names line 3 (%s)" e)
      true
      (String.exists (fun c -> c = '3') e)
  | Ok _ -> Alcotest.fail "corrupt line accepted");
  Sys.remove path

let test_history_gate () =
  let old_rec = sample_record ~sha:"old" ~opt:0.002 ~exec:0.010 () in
  (* Identical records: clean. *)
  let c =
    History.compare_records ~old_rec ~new_rec:{ old_rec with History.r_git_sha = "new" } ()
  in
  Alcotest.(check bool) "identical records do not regress" false (History.regressed c);
  (* A genuine 2x execution slowdown (10ms -> 20ms) clears both the
     relative threshold and the absolute floor. *)
  let slow = sample_record ~sha:"slow" ~opt:0.002 ~exec:0.020 () in
  let c = History.compare_records ~old_rec ~new_rec:slow () in
  Alcotest.(check bool) "2x slowdown regresses" true (History.regressed c);
  let flagged =
    List.filter (fun d -> d.History.d_regressed) c.History.c_deltas
  in
  Alcotest.(check int) "both queries' exec metric flagged" 2 (List.length flagged);
  List.iter
    (fun d ->
      Alcotest.(check string) "the exec metric is what regressed"
        "exec_min_seconds" d.History.d_metric;
      Alcotest.(check (float 1e-9)) "ratio is 2" 2.0 d.History.d_ratio)
    flagged;
  (* A 2.5x ratio on a 0.1ms baseline is under the absolute floor:
     sub-millisecond wobble must never fail a build. *)
  let tiny_old = sample_record ~sha:"t0" ~opt:0.0001 ~exec:0.0001 () in
  let tiny_new = sample_record ~sha:"t1" ~opt:0.00025 ~exec:0.00025 () in
  let c = History.compare_records ~old_rec:tiny_old ~new_rec:tiny_new () in
  Alcotest.(check bool) "sub-floor blow-up does not regress" false (History.regressed c);
  (* ...unless the caller lowers the floor. *)
  let c =
    History.compare_records ~min_seconds:1e-6 ~old_rec:tiny_old ~new_rec:tiny_new ()
  in
  Alcotest.(check bool) "lowered floor flags it" true (History.regressed c);
  (* Query-set drift is reported, not silently ignored. *)
  let dropped =
    { old_rec with
      History.r_git_sha = "drift";
      r_queries = [ sample_query "q1" 0.002 0.010; sample_query "q9" 0.002 0.010 ] }
  in
  let c = History.compare_records ~old_rec ~new_rec:dropped () in
  Alcotest.(check (list string)) "missing queries listed" [ "q2" ] c.History.c_missing;
  Alcotest.(check (list string)) "added queries listed" [ "q9" ] c.History.c_added;
  (* A wide-join scaling blow-up is gated like any other wall time:
     width 10 going 2.0s -> 6.0s is a chain10 regression. *)
  let scale_slow =
    { old_rec with
      History.r_git_sha = "scale";
      r_search_scale = [ sample_scale 4 0.01; sample_scale 10 6.0 ] }
  in
  let c = History.compare_records ~old_rec ~new_rec:scale_slow () in
  Alcotest.(check bool) "scaling regression flagged" true (History.regressed c);
  (match List.filter (fun d -> d.History.d_regressed) c.History.c_deltas with
  | [ d ] ->
    Alcotest.(check string) "reported under the chain name" "chain10" d.History.d_query;
    Alcotest.(check string) "as the optimization-time metric" "opt_seconds" d.History.d_metric
  | ds -> Alcotest.failf "expected exactly the chain10 delta, got %d" (List.length ds))

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
          Alcotest.test_case "batch-rows histogram" `Quick
            test_batch_rows_histogram ] );
      ( "history",
        [ Alcotest.test_case "record round-trip and version gate" `Quick
            test_history_roundtrip;
          Alcotest.test_case "append and load JSONL" `Quick
            test_history_append_load;
          Alcotest.test_case "regression gate" `Quick test_history_gate ] );
      ( "rendering",
        [ Alcotest.test_case "deterministic JSON" `Quick test_json_deterministic;
          Alcotest.test_case "timeline drop warning" `Quick
            test_timeline_drop_warning ] ) ]
