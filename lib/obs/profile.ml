module Json = Oodb_util.Json
module Engine = Open_oodb.Model.Engine
module Physical = Open_oodb.Physical
module Config = Oodb_cost.Config
module Disk = Oodb_storage.Disk
module Store = Oodb_storage.Store
module Buffer_pool = Oodb_storage.Buffer_pool
module Db = Oodb_exec.Db
module Executor = Oodb_exec.Executor
module Iterator = Oodb_exec.Iterator

type io = {
  seq_reads : int;
  rand_reads : int;
  writes : int;
  buffer_hits : int;
  buffer_misses : int;
  buffer_evictions : int;
  seek_units : float;
  simulated_seconds : float;
}

type node = {
  op_id : int;
  alg : Physical.t;
  est_rows : float;
  actual_rows : int;
  batches : int;
  wall_seconds : float;
  exclusive_seconds : float;
  inclusive : io;
  exclusive : io;
  q_error : float;
  est_source : string;
  children : node list;
}

(* Flooring both operands at one row keeps the ratio finite and
   symmetric when either side is zero: est=5/actual=0 reads q=5 (the
   estimator invented five rows), est=0/actual=3 reads q=3, and the
   degenerate 0/0 is a perfect q=1 — not the 1e9-ish artifacts the old
   epsilon floor produced. *)
let q_error ~est ~actual =
  let hi = Float.max 1.0 (Float.max est actual)
  and lo = Float.max 1.0 (Float.min est actual) in
  hi /. lo

(* Mutable per-operator accumulator, one per plan node. *)
type cell = {
  id : int;
  mutable rows : int;
  mutable batches : int;
  mutable wall : float;
  mutable disk : Disk.stats;
  mutable buf : Buffer_pool.stats;
}

let zero_disk : Disk.stats =
  { Disk.seq_reads = 0; rand_reads = 0; seek_pages = 0; seek_units = 0.; writes = 0 }

let zero_buf : Buffer_pool.stats = { Buffer_pool.hits = 0; misses = 0; evictions = 0 }

let add_disk (a : Disk.stats) (b : Disk.stats) : Disk.stats =
  { Disk.seq_reads = a.Disk.seq_reads + b.Disk.seq_reads;
    rand_reads = a.Disk.rand_reads + b.Disk.rand_reads;
    seek_pages = a.Disk.seek_pages + b.Disk.seek_pages;
    seek_units = a.Disk.seek_units +. b.Disk.seek_units;
    writes = a.Disk.writes + b.Disk.writes }

let add_buf (a : Buffer_pool.stats) (b : Buffer_pool.stats) : Buffer_pool.stats =
  { Buffer_pool.hits = a.Buffer_pool.hits + b.Buffer_pool.hits;
    misses = a.Buffer_pool.misses + b.Buffer_pool.misses;
    evictions = a.Buffer_pool.evictions + b.Buffer_pool.evictions }

let io_of config (d : Disk.stats) (b : Buffer_pool.stats) =
  { seq_reads = d.Disk.seq_reads;
    rand_reads = d.Disk.rand_reads;
    writes = d.Disk.writes;
    buffer_hits = b.Buffer_pool.hits;
    buffer_misses = b.Buffer_pool.misses;
    buffer_evictions = b.Buffer_pool.evictions;
    seek_units = d.Disk.seek_units;
    simulated_seconds = Executor.simulated_seconds_of config d }

(* The physical memo can hand the optimizer the same plan record for
   repeated (group, property) subproblems, so one record may occur at
   several tree positions. Profiling keys cells by physical identity of
   the node, so give every position its own record first. *)
let rec uniquify (p : Engine.plan) : Engine.plan =
  { p with Engine.children = List.map uniquify p.Engine.children }

let run ?(verify = false) ?(config = Config.default) ?spans ?registry db plan =
  let plan = uniquify plan in
  let store = Db.store db in
  let disk = Store.disk store and buffer = Store.buffer store in
  let cells : (Engine.plan * cell) list ref = ref [] in
  (* Span boundaries use the very same [Sys.time] readings as the wall
     accumulator, so per-operator span durations sum to [wall_seconds]
     exactly, not merely within clock jitter. *)
  let span_begin name args t0 =
    match spans with
    | None -> ()
    | Some s -> Span.begin_ s ~cat:"exec" ~args ~ts:t0 name
  in
  let span_end name t1 =
    match spans with None -> () | Some s -> Span.end_ s ~ts:t1 name
  in
  let measure cell ~name ~args f =
    let d0 = Disk.stats disk and b0 = Buffer_pool.stats buffer in
    let t0 = Sys.time () in
    span_begin name args t0;
    let finish () =
      let t1 = Sys.time () in
      cell.wall <- cell.wall +. (t1 -. t0);
      cell.disk <- add_disk cell.disk (Disk.sub (Disk.stats disk) d0);
      cell.buf <- add_buf cell.buf (Buffer_pool.sub (Buffer_pool.stats buffer) b0);
      span_end name t1
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  in
  let next_id = ref 0 in
  let wrap node it =
    let id = !next_id in
    incr next_id;
    let cell =
      { id; rows = 0; batches = 0; wall = 0.; disk = zero_disk; buf = zero_buf }
    in
    cells := (node, cell) :: !cells;
    let name = Physical.to_string node.Engine.alg in
    let args phase = [ ("op_id", Json.Int id); ("phase", Json.String phase) ] in
    (* Interpose per batch, not per tuple: one measured boundary crossing
       per next_batch keeps the profiler's own overhead amortized the
       same way the engine's is, and the I/O counters still sum exactly
       because they are deltas of global counters. *)
    Iterator.make_batched
      ~open_:(fun () ->
        measure cell ~name ~args:(args "open") (fun () -> Iterator.open_ it))
      ~next_batch:(fun () ->
        cell.batches <- cell.batches + 1;
        let r =
          measure cell ~name ~args:(args "next_batch") (fun () ->
              Iterator.next_batch it)
        in
        (match r with
        | Some b ->
          let n = Oodb_exec.Batch.length b in
          cell.rows <- cell.rows + n;
          Option.iter
            (fun reg -> Metrics.observe_hist reg "exec/batch_rows" (float_of_int n))
            registry
        | None -> ());
        r)
      ~close:(fun () ->
        measure cell ~name ~args:(args "close") (fun () -> Iterator.close it))
  in
  (* The untraced run with counting iterators interposed: the same reset,
     row drain and report. *)
  let rows, report = Executor.run_measured ~verify ~config ~wrap db plan in
  let est = Cardest.plan ~config (Db.catalog db) plan in
  let cell_of node =
    match List.find_opt (fun (n, _) -> n == node) !cells with
    | Some (_, c) -> c
    | None ->
      (* A node the executor never built an iterator for (unreachable for
         well-formed plans): report zeros. *)
      { id = -1; rows = 0; batches = 0; wall = 0.; disk = zero_disk; buf = zero_buf }
  in
  let sub_io a b =
    let d =
      { Disk.seq_reads = a.seq_reads - b.seq_reads;
        rand_reads = a.rand_reads - b.rand_reads;
        seek_pages = 0;
        seek_units = a.seek_units -. b.seek_units;
        writes = a.writes - b.writes }
    in
    { seq_reads = d.Disk.seq_reads;
      rand_reads = d.Disk.rand_reads;
      writes = d.Disk.writes;
      buffer_hits = a.buffer_hits - b.buffer_hits;
      buffer_misses = a.buffer_misses - b.buffer_misses;
      buffer_evictions = a.buffer_evictions - b.buffer_evictions;
      seek_units = d.Disk.seek_units;
      (* re-priced from the residual counters rather than subtracted, so
         a leaf-heavy node can't show a float-rounding -0.000s *)
      simulated_seconds = Executor.simulated_seconds_of config d }
  in
  let rec build (p : Engine.plan) (e : Cardest.t) =
    let children = List.map2 build p.Engine.children e.Cardest.children in
    let cell = cell_of p in
    let inclusive = io_of config cell.disk cell.buf in
    let exclusive =
      List.fold_left (fun acc c -> sub_io acc c.inclusive) inclusive children
    in
    (* In the pull model every child batch is produced inside a parent
       measure window, so inclusive >= sum of children; the clamp only
       absorbs float rounding. *)
    let exclusive_seconds =
      Float.max 0.
        (List.fold_left (fun acc c -> acc -. c.wall_seconds) cell.wall children)
    in
    { op_id = cell.id;
      alg = p.Engine.alg;
      est_rows = e.Cardest.card;
      actual_rows = cell.rows;
      batches = cell.batches;
      wall_seconds = cell.wall;
      exclusive_seconds;
      inclusive;
      exclusive;
      q_error = q_error ~est:e.Cardest.card ~actual:(float_of_int cell.rows);
      est_source = (if e.Cardest.fed then "feedback" else "model");
      children }
  in
  (rows, report, build plan est)

let annot n =
  Printf.sprintf
    "rows=%d est=%.1f%s q=%.2f batches=%d wall=%.4fs io: %d seq + %d rand + %d write (buffer %d/%d/%d) ~%.3fs"
    n.actual_rows n.est_rows
    (if String.equal n.est_source "feedback" then " src=feedback" else "")
    n.q_error n.batches n.exclusive_seconds
    n.exclusive.seq_reads n.exclusive.rand_reads n.exclusive.writes
    n.exclusive.buffer_hits n.exclusive.buffer_misses n.exclusive.buffer_evictions
    n.exclusive.simulated_seconds

let rec tree_of n =
  Oodb_util.Pretty.Node
    ( Printf.sprintf "%s  [%s]" (Physical.to_string n.alg) (annot n),
      List.map tree_of n.children )

let pp ppf n = Format.pp_print_string ppf (Oodb_util.Pretty.render (tree_of n))

let io_json io =
  Json.Obj
    [ ("seq_reads", Json.Int io.seq_reads);
      ("rand_reads", Json.Int io.rand_reads);
      ("writes", Json.Int io.writes);
      ("buffer_hits", Json.Int io.buffer_hits);
      ("buffer_misses", Json.Int io.buffer_misses);
      ("buffer_evictions", Json.Int io.buffer_evictions);
      ("seek_units", Json.float io.seek_units);
      ("simulated_seconds", Json.float io.simulated_seconds) ]

let rec to_json n =
  Json.Obj
    [ ("op", Json.String (Physical.to_string n.alg));
      ("op_id", Json.Int n.op_id);
      ("est_rows", Json.float n.est_rows);
      ("actual_rows", Json.Int n.actual_rows);
      ("batches", Json.Int n.batches);
      ("wall_seconds", Json.float n.wall_seconds);
      ("exclusive_seconds", Json.float n.exclusive_seconds);
      ("q_error", Json.float n.q_error);
      ("est_source", Json.String n.est_source);
      ("inclusive", io_json n.inclusive);
      ("exclusive", io_json n.exclusive);
      ("children", Json.List (List.map to_json n.children)) ]
