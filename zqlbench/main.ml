(* ZQL-to-rows benchmark: one closed-loop client drives the real
   pipeline (Zql.Simplify.compile -> Plancache.optimize -> execution)
   over the Table-1 database, checks every answer against the reference
   interpreter, and prints one JSON result line.

     main.exe --workload W --seed N --seconds S --trace 0|1
              [--inject LAYER]

   --trace 0 times the pipeline untraced and reports end-to-end metrics.
   --trace 1 runs half the time untraced and half with spans around the
   calls into every layer, and reports per-layer metrics. --inject adds a
   delay of 10% of each call's own duration to every call into one layer
   (zql, plancache, optimizer or exec): the injected-slowdown
   self-check. All times come from the monotonic
   clock. *)

module Catalog = Oodb_catalog.Catalog
module Datagen = Oodb_workloads.Datagen
module Db = Oodb_exec.Db
module Executor = Oodb_exec.Executor
module Plancache = Oodb_plancache.Plancache
module Span = Oodb_util.Span
module Profile = Oodb_obs.Profile
module Interp = Oodb_verify.Interp
module Physical = Open_oodb.Physical
module Engine = Open_oodb.Model.Engine
module Simplify = Zql.Simplify

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let ratio a b = if b = 0. then 0. else a /. b

let fi = float_of_int

(* {1 Layers} *)

type layer = Zql | Plancache_hit | Optimizer | Exec

let layer_of_string = function
  | "zql" -> Zql
  | "plancache" -> Plancache_hit
  | "optimizer" -> Optimizer
  | "exec" -> Exec
  | s -> raise (Arg.Bad ("unknown layer " ^ s))

(* Self seconds per span name. Span names from the library: fingerprint
   and cache-lookup (plancache), optimize (optimizer), intern,
   logical-closure and physical-search (volcano). Names from this file:
   zql, plancache, exec, inject. *)
type selfs = {
  mutable zql : float;
  mutable pc : float;
  mutable fingerprint : float;
  mutable lookup : float;
  mutable optimize : float;
  mutable intern : float;
  mutable closure : float;
  mutable search : float;
  mutable exec : float;
  mutable inject : float;
}

let zero_selfs () =
  { zql = 0.; pc = 0.; fingerprint = 0.; lookup = 0.; optimize = 0.; intern = 0.;
    closure = 0.; search = 0.; exec = 0.; inject = 0. }

let add_self s name d =
  match name with
  | "zql" -> s.zql <- s.zql +. d
  | "plancache" -> s.pc <- s.pc +. d
  | "fingerprint" -> s.fingerprint <- s.fingerprint +. d
  | "cache-lookup" -> s.lookup <- s.lookup +. d
  | "optimize" -> s.optimize <- s.optimize +. d
  | "intern" -> s.intern <- s.intern +. d
  | "logical-closure" -> s.closure <- s.closure +. d
  | "physical-search" -> s.search <- s.search +. d
  | "exec" -> s.exec <- s.exec +. d
  | "inject" -> s.inject <- s.inject +. d
  | _ -> ()

let merge_selfs into s =
  into.zql <- into.zql +. s.zql;
  into.pc <- into.pc +. s.pc;
  into.fingerprint <- into.fingerprint +. s.fingerprint;
  into.lookup <- into.lookup +. s.lookup;
  into.optimize <- into.optimize +. s.optimize;
  into.intern <- into.intern +. s.intern;
  into.closure <- into.closure +. s.closure;
  into.search <- into.search +. s.search;
  into.exec <- into.exec +. s.exec;
  into.inject <- into.inject +. s.inject

(* A span's self time is its duration minus its children's. Operator
   spans (category "exec") are stamped by the profiler with its own
   processor-clock readings, so they are left out: the exec layer is
   timed whole by this file's "exec" span. *)
let self_times spans =
  let s = zero_selfs () in
  let stack = ref [] in
  List.iter
    (fun (ev : Span.event) ->
      match ev.Span.ev_ph with
      | `B -> stack := (ev.Span.ev_name, ev.Span.ev_cat, ev.Span.ev_ts, ref 0.) :: !stack
      | `E -> (
        match !stack with
        | [] -> ()
        | (name, cat, t0, child) :: rest ->
          stack := rest;
          if cat <> "exec" then begin
            let d = ev.Span.ev_ts -. t0 in
            add_self s name (d -. !child);
            match rest with (_, _, _, parent) :: _ -> parent := !parent +. d | [] -> ()
          end))
    (Span.events spans);
  s

(* Layer totals; injected delay counts toward the layer it was added to. *)
let layer_seconds ?inject s =
  let inj l = if inject = Some l then s.inject else 0. in
  let zql = s.zql +. inj Zql in
  let plancache = s.pc +. s.fingerprint +. s.lookup +. inj Plancache_hit in
  let optimizer = s.optimize +. s.intern +. s.closure +. s.search +. inj Optimizer in
  let exec = s.exec +. inj Exec in
  (zql, plancache, optimizer, exec)

let op_kind : Physical.t -> string = function
  | Physical.File_scan _ -> "file_scan"
  | Physical.Index_scan _ -> "index_scan"
  | Physical.Filter _ -> "filter"
  | Physical.Hash_join _ -> "hash_join"
  | Physical.Merge_join _ -> "merge_join"
  | Physical.Pointer_join _ -> "pointer_join"
  | Physical.Assembly _ -> "assembly"
  | Physical.Alg_project _ -> "alg_project"
  | Physical.Alg_unnest _ -> "alg_unnest"
  | Physical.Sort _ -> "sort"
  | Physical.Hash_union | Physical.Hash_intersect | Physical.Hash_difference -> "hash_setop"

let op_kinds =
  [ "file_scan"; "index_scan"; "filter"; "hash_join"; "merge_join"; "pointer_join";
    "assembly"; "alg_project"; "alg_unnest"; "sort"; "hash_setop" ]

(* {1 The pipeline} *)

type result = {
  rows : Executor.row list;
  io : Executor.io_report;
  outcome : Plancache.outcome;
  profile : Profile.node option;
  zql_words : float;
  opt_words : float;
  exec_words : float;
}

exception Failed of string

let pipeline ?spans ?inject db cache text =
  let cat = Db.catalog db in
  let traced = Option.is_some spans in
  let words () = if traced then Gc.minor_words () else 0. in
  let in_span name f = Span.with_span spans ~cat:"bench" name f in
  (* Busy-wait for a tenth of the time since [t0]: a 10% slowdown of the
     wrapped call, inside its layer's span. *)
  let delay layer t0 =
    if inject = Some layer then begin
      let until = now () +. (0.1 *. (now () -. t0)) in
      in_span "inject" (fun () -> while now () < until do () done)
    end
  in
  let w0 = words () in
  let logical =
    in_span "zql" (fun () ->
        let t0 = now () in
        let r = Simplify.compile cat text in
        delay Zql t0;
        r)
  in
  let logical = match logical with Ok l -> l | Error e -> raise (Failed e) in
  let w1 = words () in
  let outcome =
    in_span "plancache" (fun () ->
        let t0 = now () in
        let o = Plancache.optimize ?spans cache cat logical in
        delay (if o.Plancache.cached then Plancache_hit else Optimizer) t0;
        o)
  in
  let plan =
    match outcome.Plancache.plan with Some p -> p | None -> raise (Failed "no plan")
  in
  let w2 = words () in
  let rows, io, profile =
    in_span "exec" (fun () ->
        let t0 = now () in
        let r =
          match spans with
          | None ->
            let rows, io = Executor.run_measured db plan in
            (rows, io, None)
          | Some _ ->
            let rows, io, node = Profile.run ?spans db plan in
            (rows, io, Some node)
        in
        delay Exec t0;
        r)
  in
  let w3 = words () in
  ( logical,
    plan,
    { rows; io; outcome; profile; zql_words = w1 -. w0; opt_words = w2 -. w1;
      exec_words = w3 -. w2 } )

(* {1 Reference answers} *)

(* The reference interpreter shares no code with the optimizer or the
   executor. Texts are checked on the full database, except those marked
   [reduced_check]: for them the very plan the run used is executed
   again on a reduced-scale database built by the same generator, and
   compared with the interpreter's answer on that database.

   No check runs inside the timed loop beyond a row count: the
   interpreter allocates heavily, and the collector would bill that work
   to the queries timed after it. A workload's fixed texts are checked
   in a pass before the loop, which records each text's row count; texts
   first seen in the loop are checked after it. *)
type checker = {
  full : Db.t;
  small : Db.t Lazy.t;
  expected : (string, int) Hashtbl.t;  (** text -> row count; -1 = wrong *)
  mutable pending : (Workload.query * Oodb_algebra.Logical.t * Engine.plan * int) list;
  mutable checked : int;
  mutable nonempty : int;
}

let reduced_scale = 0.002

let checker full =
  { full;
    small = lazy (Datagen.generate ~scale:reduced_scale ());
    expected = Hashtbl.create 256;
    pending = [];
    checked = 0;
    nonempty = 0 }

(* Full check of one text's answer, which had [count] rows on the full
   database ([full_rows], forced only for a full-database check); records
   the count. *)
let verify ck (q : Workload.query) logical plan ~count full_rows =
  let ok =
    try
      let got, want =
        if q.Workload.reduced_check then
          let small = Lazy.force ck.small in
          let logical = Simplify.compile_exn (Db.catalog small) q.Workload.text in
          (Executor.run small plan, Interp.rows small logical)
        else (Lazy.force full_rows, Interp.rows ck.full logical)
      in
      ck.checked <- ck.checked + 1;
      if want <> [] then ck.nonempty <- ck.nonempty + 1;
      let ok =
        Interp.same_rows got want && (q.Workload.reduced_check || List.length got = count)
      in
      if not ok then
        Printf.eprintf "WRONG ROWS: %s\n  got %d rows, reference %d rows\n%!" q.Workload.text
          (List.length got) (List.length want);
      ok
    with e ->
      Printf.eprintf "CHECK FAILED: %s: %s\n%!" q.Workload.text (Printexc.to_string e);
      false
  in
  Hashtbl.replace ck.expected q.Workload.text (if ok then count else -1);
  ok

(* Inside the timed loop: compare the row count, or defer the check. *)
let check_in_loop ck (q : Workload.query) logical plan rows =
  match Hashtbl.find_opt ck.expected q.Workload.text with
  | Some n -> n >= 0 && List.length rows = n
  | None ->
    ck.pending <- (q, logical, plan, List.length rows) :: ck.pending;
    true

(* After the loop: full checks of the deferred texts; returns failures. *)
let check_pending ck =
  let pending = List.rev ck.pending in
  ck.pending <- [];
  List.length
    (List.filter
       (fun ((q : Workload.query), logical, plan, n) ->
         match Hashtbl.find_opt ck.expected q.Workload.text with
         | Some m -> m <> n
         | None -> not (verify ck q logical plan ~count:n (lazy (Executor.run ck.full plan))))
       pending)

(* The pass over a workload's fixed texts before the loop; returns
   failures. The paper's answers at scale 1 are pinned: Query 1 over
   Dallas returns 5,000 rows and Query 4 returns 5. *)
let verify_texts ck db cache queries =
  let pinned = [ (Workload.paper_q1.Workload.text, 5000); (Workload.paper_q4.Workload.text, 5) ] in
  List.length
    (List.filter
       (fun (q : Workload.query) ->
         match pipeline db cache q.Workload.text with
         | logical, plan, r ->
           let pin_ok =
             match List.assoc_opt q.Workload.text pinned with
             | Some n when List.length r.rows <> n ->
               Printf.eprintf "PIN FAILED: %s returned %d rows, not %d\n%!" q.Workload.text
                 (List.length r.rows) n;
               false
             | _ -> true
           in
           not (verify ck q logical plan ~count:(List.length r.rows) (lazy r.rows) && pin_ok)
         | exception e ->
           Printf.eprintf "FAILED: %s: %s\n%!" q.Workload.text (Printexc.to_string e);
           true)
       queries)

(* {1 Set-up} *)

let setup_reps = 5

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Database generation (data, catalog, indexes) and plan-cache warm-up,
   repeated [setup_reps] times; the last instance is kept. *)
let setup (wl : Workload.t) =
  let rec go k acc =
    Gc.compact ();
    let t0 = now () in
    let db = Datagen.generate () in
    let t1 = now () in
    let cache = Plancache.create ~capacity:256 () in
    let cat = Db.catalog db in
    List.iter
      (fun text -> ignore (Plancache.optimize cache cat (Simplify.compile_exn cat text)))
      wl.Workload.warm_texts;
    let t2 = now () in
    let acc = (t1 -. t0, t2 -. t1) :: acc in
    if k = 1 then (db, cache, acc) else go (k - 1) acc
  in
  let db, cache, times = go setup_reps [] in
  let datagen = median (List.map fst times) and warmup = median (List.map snd times) in
  let total = median (List.map (fun (a, b) -> a +. b) times) in
  (db, cache, datagen, warmup, total)

(* {1 Measurement} *)

(* The run is cut into windows of a fixed number of operations, each
   with the same template rotation. On a shared machine, cache
   contention from other tenants slows memory-bound work by up to ~1.7x
   in phases from a second to minutes long, which only ever slow
   operations down. So timing
   metrics come from the third of the windows that ran fastest relative
   to their own content: a window's slowness is the median, over its
   queries, of each latency divided by the run's median latency for the
   same template. Ranking by that ratio rather than by raw throughput
   keeps windows that happened to draw cheap constants from being
   favoured. Counts come from every operation. *)
type window = {
  mutable w_queries : int;
  mutable w_busy : float;  (** seconds inside operations, excluding checks *)
  mutable w_latencies : (string * float) list;  (** template, seconds *)
  w_selfs : selfs;  (** traced only, as are the fields below *)
  mutable w_hits : int;
  mutable w_hit_seconds : float;
  mutable w_misses : int;
}

let new_window () =
  { w_queries = 0; w_busy = 0.; w_latencies = []; w_selfs = zero_selfs (); w_hits = 0;
    w_hit_seconds = 0.; w_misses = 0 }

let window_qps w = ratio (fi w.w_queries) w.w_busy

type stats = {
  mutable ops : int;
  mutable queries : int;
  mutable writes : int;
  mutable failed : int;
  mutable cur : window;
  mutable windows : window list;  (** complete windows *)
  mutable sim_disk : float;
  per_template : (string, float) Hashtbl.t;
  distinct : (string, unit) Hashtbl.t;
  (* traced only *)
  mutable hits : int;
  mutable misses : int;
  mutable zql_words : float;
  mutable opt_words : float;
  mutable exec_words : float;
  mutable rows : int;
  mutable groups : int;
  mutable mexprs : int;
  mutable trule_fired : int;
  mutable trule_tried : int;
  mutable candidates : int;
  mutable pruned : int;
  op_seconds : (string, float) Hashtbl.t;
  mutable seq_reads : int;
  mutable rand_reads : int;
  mutable buf_hits : int;
  mutable buf_misses : int;
  mutable buf_evictions : int;
  cache_before : Plancache.stats;
  mutable cache_after : Plancache.stats;
}

let new_stats cache =
  { ops = 0; queries = 0; writes = 0; failed = 0; cur = new_window (); windows = [];
    sim_disk = 0.; per_template = Hashtbl.create 8; distinct = Hashtbl.create 256; hits = 0;
    misses = 0; zql_words = 0.; opt_words = 0.; exec_words = 0.; rows = 0; groups = 0;
    mexprs = 0; trule_fired = 0; trule_tried = 0; candidates = 0; pruned = 0;
    op_seconds = Hashtbl.create 16; seq_reads = 0; rand_reads = 0; buf_hits = 0;
    buf_misses = 0; buf_evictions = 0; cache_before = Plancache.stats cache;
    cache_after = Plancache.stats cache }

(* Median latency per template over some windows. *)
let template_medians ws =
  let by_template = Hashtbl.create 8 in
  List.iter
    (fun w ->
      List.iter
        (fun (t, l) ->
          Hashtbl.replace by_template t
            (l :: Option.value ~default:[] (Hashtbl.find_opt by_template t)))
        w.w_latencies)
    ws;
  Hashtbl.fold (fun t ls acc -> (t, median ls) :: acc) by_template []

(* The third of the complete windows that ran fastest relative to their
   content (the partial last window if none completed). *)
let fast_windows st =
  match st.windows with
  | [] -> [ st.cur ]
  | ws ->
    let typical = Hashtbl.of_seq (List.to_seq (template_medians ws)) in
    let slowness w =
      median (List.map (fun (t, l) -> ratio l (Hashtbl.find typical t)) w.w_latencies)
    in
    List.map (fun w -> (slowness w, w)) ws
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
    |> List.filteri (fun i _ -> i < (List.length ws + 2) / 3)
    |> List.map snd

let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

let rec add_profile st (n : Profile.node) =
  bump st.op_seconds (op_kind n.Profile.alg) n.Profile.exclusive_seconds;
  List.iter (add_profile st) n.Profile.children

let record_traced st ?inject spans (r : result) =
  let s = self_times spans in
  let w = st.cur in
  merge_selfs w.w_selfs s;
  let o = r.outcome in
  if o.Plancache.cached then begin
    st.hits <- st.hits + 1;
    w.w_hits <- w.w_hits + 1;
    let _, pc, _, _ = layer_seconds ?inject s in
    w.w_hit_seconds <- w.w_hit_seconds +. pc
  end
  else begin
    st.misses <- st.misses + 1;
    w.w_misses <- w.w_misses + 1;
    st.opt_words <- st.opt_words +. r.opt_words;
    let x = o.Plancache.stats in
    st.groups <- st.groups + x.Engine.groups;
    st.mexprs <- st.mexprs + x.Engine.mexprs;
    st.trule_fired <- st.trule_fired + x.Engine.trule_fired;
    st.trule_tried <- st.trule_tried + x.Engine.trule_tried;
    st.candidates <- st.candidates + x.Engine.candidates;
    st.pruned <- st.pruned + x.Engine.pruned_candidates
  end;
  st.zql_words <- st.zql_words +. r.zql_words;
  st.exec_words <- st.exec_words +. r.exec_words;
  st.rows <- st.rows + List.length r.rows;
  Option.iter (add_profile st) r.profile;
  let io = r.io in
  st.seq_reads <- st.seq_reads + io.Executor.seq_reads;
  st.rand_reads <- st.rand_reads + io.Executor.rand_reads;
  st.buf_hits <- st.buf_hits + io.Executor.buffer_hits;
  st.buf_misses <- st.buf_misses + io.Executor.buffer_misses;
  st.buf_evictions <- st.buf_evictions + io.Executor.buffer_evictions

(* One closed-loop client: the next operation starts when the previous
   one (and its answer check, which is not timed) is done. Runs until
   [seconds] of operation time have been spent. *)
let measure ~traced ?inject ~seconds (wl : Workload.t) ck db cache =
  let st = new_stats cache in
  let cat = Db.catalog db in
  let wall0 = now () in
  let spent = ref 0. in
  (* a guard against slow answer checks: stop at three times the budget *)
  while !spent < seconds && now () -. wall0 < 3. *. seconds do
    if st.ops > 0 && st.ops mod wl.Workload.window = 0 then begin
      st.windows <- st.cur :: st.windows;
      st.cur <- new_window ()
    end;
    st.ops <- st.ops + 1;
    let w = st.cur in
    let t0 = now () in
    let spend () =
      let dt = now () -. t0 in
      w.w_busy <- w.w_busy +. dt;
      spent := !spent +. dt;
      dt
    in
    match wl.Workload.next () with
    | Workload.Stat_write { cls; field } ->
      (match Catalog.distinct cat ~cls ~field with
      | Some v -> Catalog.set_distinct cat ~cls ~field v
      | None -> st.failed <- st.failed + 1);
      ignore (spend ());
      st.writes <- st.writes + 1
    | Workload.Query q -> (
      let spans = if traced then Some (Span.create ~clock:now ()) else None in
      match pipeline ?spans ?inject db cache q.Workload.text with
      | logical, plan, r ->
        let dt = spend () in
        st.queries <- st.queries + 1;
        w.w_queries <- w.w_queries + 1;
        w.w_latencies <- (q.Workload.template, dt) :: w.w_latencies;
        st.sim_disk <- st.sim_disk +. r.io.Executor.simulated_seconds;
        bump st.per_template q.Workload.template 1.;
        Hashtbl.replace st.distinct q.Workload.text ();
        Option.iter (fun s -> record_traced st ?inject s r) spans;
        if not (check_in_loop ck q logical plan r.rows) then st.failed <- st.failed + 1
      | exception e ->
        ignore (spend ());
        st.failed <- st.failed + 1;
        Printf.eprintf "FAILED: %s: %s\n%!" q.Workload.text (Printexc.to_string e))
  done;
  st.cache_after <- Plancache.stats cache;
  st

(* {1 Reporting} *)

let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* Throughput and latencies over the fast windows. *)
let timing st =
  let ws = fast_windows st in
  let queries = List.fold_left (fun acc w -> acc + w.w_queries) 0 ws in
  let busy = List.fold_left (fun acc w -> acc +. w.w_busy) 0. ws in
  (ws, ratio (fi queries) busy, List.concat_map (fun w -> List.map snd w.w_latencies) ws)

let traffic_record ~seed (wl : Workload.t) st =
  let cs = st.cache_before and ce = st.cache_after in
  let hits = ce.Plancache.hits - cs.Plancache.hits
  and misses = ce.Plancache.misses - cs.Plancache.misses in
  let ws, _, latencies = timing st in
  let qps = List.map window_qps st.windows in
  Printf.printf "traffic: workload=%s seed=%d ops=%d queries=%d stat_writes=%d distinct_texts=%d\n"
    wl.Workload.name seed st.ops st.queries st.writes (Hashtbl.length st.distinct);
  Printf.printf "traffic: per_template %s\n"
    (String.concat " "
       (List.map
          (fun t ->
            Printf.sprintf "%s=%d" t
              (int_of_float (Option.value ~default:0. (Hashtbl.find_opt st.per_template t))))
          wl.Workload.templates));
  let medians = template_medians ws in
  Printf.printf "timing: median ms per template %s\n"
    (String.concat " "
       (List.map
          (fun t ->
            Printf.sprintf "%s=%.3f" t
              (1e3 *. Option.value ~default:0. (List.assoc_opt t medians)))
          wl.Workload.templates));
  Printf.printf "traffic: cache hits=%d misses=%d hit_rate=%.4f evictions=%d\n" hits misses
    (ratio (fi hits) (fi (hits + misses)))
    (ce.Plancache.evictions - cs.Plancache.evictions);
  Printf.printf
    "timing: %d windows of %d ops, window qps min %.1f median %.1f max %.1f; fast third: %d \
     windows, %d latency samples\n"
    (List.length st.windows) wl.Workload.window
    (List.fold_left Float.min infinity qps) (median qps) (List.fold_left Float.max 0. qps)
    (List.length ws) (List.length latencies)

let json_metrics metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  String.concat ", "
    (List.map
       (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
       metrics)

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (name, unit, v) -> Printf.printf "%-36s %14.6g %s\n" name v unit) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (json_metrics metrics)

let peak_heap_mb () =
  fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let end_to_end ~setup_s st =
  let _, qps, latencies = timing st in
  [ ("qps", "1/s", qps);
    ("latency_p50_ms", "ms", 1e3 *. percentile 0.5 latencies);
    ("latency_p90_ms", "ms", 1e3 *. percentile 0.9 latencies);
    ("setup_s", "s", setup_s);
    ("peak_heap_mb", "MB", peak_heap_mb ());
    ("sim_disk_s_per_query", "s", ratio st.sim_disk (fi st.queries)) ]

let per_layer ?inject ~datagen ~warmup ~untraced st =
  let ws, traced_qps, _ = timing st in
  let _, untraced_qps, _ = timing untraced in
  (* layer times over the fast windows; counts over every operation *)
  let s = zero_selfs () in
  List.iter (fun w -> merge_selfs s w.w_selfs) ws;
  let sum f = List.fold_left (fun acc w -> acc +. f w) 0. ws in
  let wall = sum (fun w -> w.w_busy) in
  let q = sum (fun w -> fi w.w_queries) in
  let m = sum (fun w -> fi w.w_misses) in
  let hit_seconds = sum (fun w -> w.w_hit_seconds) and hits = sum (fun w -> fi w.w_hits) in
  let zql, pc, opt, exec = layer_seconds ?inject s in
  let nq = fi st.queries and nm = fi st.misses in
  let ce = st.cache_after and cs = st.cache_before in
  let evictions = fi (ce.Plancache.evictions - cs.Plancache.evictions) in
  let op_total = Hashtbl.fold (fun _ v acc -> acc +. v) st.op_seconds 0. in
  [ ("zql.compile_us", "us", 1e6 *. ratio zql q);
    ("zql.share", "ratio", ratio zql wall);
    ("zql.minor_words_per_op", "words", ratio st.zql_words nq);
    ("plancache.hit_us", "us", 1e6 *. ratio hit_seconds hits);
    ("plancache.fingerprint_us", "us", 1e6 *. ratio s.fingerprint q);
    ("plancache.lookup_us", "us", 1e6 *. ratio s.lookup q);
    ("plancache.share", "ratio", ratio pc wall);
    ("plancache.hit_rate", "ratio", ratio (fi st.hits) (fi (st.hits + st.misses)));
    ("plancache.evictions_per_kop", "count", 1e3 *. ratio evictions (fi st.ops));
    ("optimizer.cold_ms", "ms", 1e3 *. ratio opt m);
    ("optimizer.share", "ratio", ratio opt wall);
    ("optimizer.minor_words_per_query", "words", ratio st.opt_words nm);
    ("volcano.intern_ms", "ms", 1e3 *. ratio s.intern m);
    ("volcano.closure_ms", "ms", 1e3 *. ratio s.closure m);
    ("volcano.search_ms", "ms", 1e3 *. ratio s.search m);
    ("volcano.groups_per_query", "count", ratio (fi st.groups) nm);
    ("volcano.mexprs_per_query", "count", ratio (fi st.mexprs) nm);
    ("volcano.closure_yield", "ratio", ratio (fi st.trule_fired) (fi st.trule_tried));
    ("volcano.candidates_per_query", "count", ratio (fi st.candidates) nm);
    ("volcano.pruned_share", "ratio", ratio (fi st.pruned) (fi st.candidates));
    ("exec.ms", "ms", 1e3 *. ratio exec q);
    ("exec.share", "ratio", ratio exec wall);
    ("exec.rows_per_query", "count", ratio (fi st.rows) nq);
    ("exec.minor_words_per_row", "words", ratio st.exec_words (fi st.rows)) ]
  @ List.map
      (fun k ->
        ( Printf.sprintf "exec.op.%s.self_share" k,
          "ratio",
          ratio (Option.value ~default:0. (Hashtbl.find_opt st.op_seconds k)) op_total ))
      op_kinds
  @ [ ("storage.seq_reads_per_query", "count", ratio (fi st.seq_reads) nq);
      ("storage.rand_reads_per_query", "count", ratio (fi st.rand_reads) nq);
      ("storage.buffer_hit_rate", "ratio", ratio (fi st.buf_hits) (fi (st.buf_hits + st.buf_misses)));
      ("storage.buffer_evictions_per_query", "count", ratio (fi st.buf_evictions) nq);
      ("setup.datagen_s", "s", datagen);
      ("setup.warmup_s", "s", warmup);
      ("trace.qps", "1/s", traced_qps);
      ("trace.untraced_qps", "1/s", untraced_qps);
      ("trace.overhead_share", "ratio", ratio (untraced_qps -. traced_qps) untraced_qps);
      ("trace.residual_share", "ratio", ratio (wall -. zql -. pc -. opt -. exec) wall) ]

(* {1 Command line} *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let inject = ref None in
  let specs =
    [ ("--workload", Arg.Set_string workload, " " ^ String.concat "|" Workload.names);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " operation time to measure");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--inject", Arg.String (fun s -> inject := Some (layer_of_string s)),
       " zql|plancache|optimizer|exec: slow that layer down by 10%") ]
  in
  Arg.parse (Arg.align specs) (fun a -> raise (Arg.Bad a)) "main.exe --workload W [options]";
  if not (List.mem !workload Workload.names) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  let inject = !inject in
  let wl = Workload.make !workload !seed in
  let db, cache, datagen, warmup, setup_s = setup wl in
  let ck = checker db in
  let fixed = wl.Workload.fixed in
  let early = verify_texts ck db cache fixed in
  Gc.compact ();
  let report st ~late ~ops metrics =
    traffic_record ~seed:!seed wl st;
    Printf.printf "checks: %d distinct texts checked against the reference, %d non-empty\n"
      ck.checked ck.nonempty;
    let failed = early + late in
    print_result ~correct:(failed = 0) ~attempted:(List.length fixed + ops) ~failed metrics
  in
  if !trace = 0 then begin
    let st = measure ~traced:false ?inject ~seconds:!seconds wl ck db cache in
    let late = st.failed + check_pending ck in
    report st ~late ~ops:st.ops (end_to_end ~setup_s st)
  end
  else begin
    let half = !seconds /. 2. in
    let untraced = measure ~traced:false ?inject ~seconds:half wl ck db cache in
    let st = measure ~traced:true ?inject ~seconds:half wl ck db cache in
    let late = untraced.failed + st.failed + check_pending ck in
    report st ~late ~ops:(untraced.ops + st.ops)
      (per_layer ?inject ~datagen ~warmup ~untraced st)
  end
