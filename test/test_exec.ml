(* Execution-engine tests over a small generated database. *)

module Value = Oodb_storage.Value
module Store = Oodb_storage.Store
module Disk = Oodb_storage.Disk
module Pred = Oodb_algebra.Pred
module Logical = Oodb_algebra.Logical
module Physprop = Open_oodb.Physprop
module Physical = Open_oodb.Physical
module Engine = Open_oodb.Model.Engine
module Db = Oodb_exec.Db
module Env = Oodb_exec.Env
module Eval = Oodb_exec.Eval
module Iterator = Oodb_exec.Iterator
module Operators = Oodb_exec.Operators
module Executor = Oodb_exec.Executor
module Opt = Open_oodb.Optimizer
module Options = Open_oodb.Options

let db () = Lazy.force Helpers.small_db

let cat () = Db.catalog (db ())

(* Manual plan node (costs irrelevant for execution). *)
let node alg children delivered =
  { Engine.alg;
    children;
    cost = Oodb_cost.Cost.zero;
    delivered = Physprop.in_memory delivered }

(* ------------------------------------------------------------------ *)
(* Env / Eval                                                           *)

let test_env_basics () =
  let d = db () in
  let store = Db.store d in
  let oid = List.hd (Store.oids store ~coll:"Cities") in
  let env = Env.bind_obj Env.empty "c" oid in
  Alcotest.(check int) "oid" oid (Env.oid env "c");
  Alcotest.(check bool) "obj" true (Env.obj env "c" = oid);
  let env = Env.bind_ref env "x" 99 in
  Alcotest.(check int) "ref oid" 99 (Env.oid env "x");
  Alcotest.check_raises "not materialized" (Env.Not_materialized "x") (fun () ->
      ignore (Env.obj env "x"));
  Alcotest.check_raises "unbound" (Env.Unbound "nope") (fun () -> ignore (Env.oid env "nope"));
  Alcotest.(check (list string)) "bindings" [ "c"; "x" ] (Env.bindings env);
  Alcotest.(check (list string)) "narrow" [ "x" ] (Env.bindings (Env.narrow env [ "x" ]))

let test_eval () =
  let d = db () in
  let store = Db.store d in
  let oid = List.hd (Store.oids store ~coll:"Cities") in
  let env = Env.bind_obj Env.empty "c" oid in
  let name = Store.field store oid "name" in
  Alcotest.(check bool) "eq" true
    (Eval.compile_atom store (Pred.atom Pred.Eq (Pred.Field ("c", "name")) (Pred.Const name)) env);
  Alcotest.(check bool) "self" true
    (Eval.compile_atom store (Pred.atom Pred.Eq (Pred.Self "c") (Pred.Const (Value.Ref oid))) env);
  Alcotest.(check bool) "missing field is null" true
    (Eval.compile_operand store (Pred.Field ("c", "no_such_field")) env = Value.Null);
  Alcotest.(check bool) "null comparisons false" false
    (Eval.compile_atom store
       (Pred.atom Pred.Lt (Pred.Field ("c", "no_such_field")) (Pred.Const (Value.Int 1)))
       env)

(* The FIFO that joins and unnest park their output in hands tuples
   back in push order across interleaved pushes and pops, in full
   batches until the last. *)
let test_fifo_order () =
  let d = db () in
  let store = Db.store d in
  let tuples =
    List.concat_map
      (fun _ -> List.map (fun oid -> Env.bind_ref Env.empty "x" oid) (Store.oids store ~coll:"Cities"))
      [ 1; 2; 3; 4; 5 ]
  in
  let q = Oodb_exec.Batch.Fifo.create 3 in
  let out = ref [] in
  let take = Option.iter (fun b -> out := !out @ [ Oodb_exec.Batch.to_list b ]) in
  List.iteri
    (fun i env ->
      Oodb_exec.Batch.Fifo.push q env;
      if i mod 5 = 4 then take (Oodb_exec.Batch.Fifo.pop_full q))
    tuples;
  let rec rest () =
    match Oodb_exec.Batch.Fifo.pop q with
    | Some _ as b ->
      take b;
      rest ()
    | None -> ()
  in
  rest ();
  Alcotest.(check (list int)) "push order"
    (List.map (fun e -> Env.oid e "x") tuples)
    (List.map (fun e -> Env.oid e "x") (List.concat !out));
  Alcotest.(check (list int)) "full batches until the last"
    (List.init (List.length !out) (fun i ->
         if i < List.length !out - 1 then 3 else ((List.length tuples - 1) mod 3) + 1))
    (List.map List.length !out)

(* ------------------------------------------------------------------ *)
(* Operators                                                            *)

let test_file_scan_counts () =
  let d = db () in
  let it = Operators.file_scan d ~coll:"Cities" ~binding:"c" ~batch_size:8 in
  let envs = Iterator.to_list it in
  Alcotest.(check int) "all cities" (Store.cardinality (Db.store d) ~coll:"Cities")
    (List.length envs)

let test_index_scan_equals_filter () =
  let d = db () in
  let store = Db.store d in
  (* pick the time of the first task so the result is non-empty *)
  let t0 = List.hd (Store.oids store ~coll:"Tasks") in
  let key = Store.field store t0 "time" in
  let via_index =
    Iterator.to_list
      (Operators.index_scan d ~coll:"Tasks" ~binding:"t" ~index:"tasks_time" ~key ~residual:[] ~derefs:[] ~batch_size:8)
    |> List.map (fun e -> Env.oid e "t")
    |> List.sort compare
  in
  let via_scan =
    Iterator.to_list
      (Operators.filter d
         [ Pred.atom Pred.Eq (Pred.Field ("t", "time")) (Pred.Const key) ]
         (Operators.file_scan d ~coll:"Tasks" ~binding:"t" ~batch_size:8))
    |> List.map (fun e -> Env.oid e "t")
    |> List.sort compare
  in
  Alcotest.(check bool) "non-empty" true (via_scan <> []);
  Alcotest.(check (list int)) "same objects" via_scan via_index

let test_assembly_materializes () =
  let d = db () in
  let it =
    Operators.assembly d
      ~paths:[ { Physical.ap_src = "c"; ap_field = Some "mayor"; ap_out = "m" } ]
      ~window:4
      (Operators.file_scan d ~coll:"Cities" ~binding:"c" ~batch_size:8)
  in
  let envs = Iterator.to_list it in
  Alcotest.(check int) "cardinality preserved" (Store.cardinality (Db.store d) ~coll:"Cities")
    (List.length envs);
  List.iter
    (fun env ->
      let c = Env.obj env "c" and m = Env.obj env "m" in
      Alcotest.(check bool) "mayor resolved" true
        (Value.as_ref (Store.field (Db.store d) c "mayor") = Some m))
    envs

let test_assembly_window_sizes_agree () =
  let d = db () in
  let run window =
    Operators.assembly d
      ~paths:[ { Physical.ap_src = "c"; ap_field = Some "mayor"; ap_out = "m" } ]
      ~window
      (Operators.file_scan d ~coll:"Cities" ~binding:"c" ~batch_size:8)
    |> Iterator.to_list
    |> List.map (fun e -> (Env.oid e "c", Env.oid e "m"))
  in
  Alcotest.(check bool) "window 1 == window 64" true (run 1 = run 64)

let test_unnest () =
  let d = db () in
  let store = Db.store d in
  let it =
    Operators.alg_unnest d ~src:"t" ~field:"team_members" ~out:"m" ~batch_size:8
      (Operators.file_scan d ~coll:"Tasks" ~binding:"t" ~batch_size:8)
  in
  let envs = Iterator.to_list it in
  let expected =
    List.fold_left
      (fun acc t ->
        acc + List.length (Value.set_elements (Store.field store t "team_members")))
      0 (Store.oids store ~coll:"Tasks")
  in
  Alcotest.(check int) "one pair per member" expected (List.length envs);
  (* unnest output is a reference, not materialized *)
  match envs with
  | env :: _ ->
    Alcotest.check_raises "not in memory" (Env.Not_materialized "m") (fun () ->
        ignore (Env.obj env "m"))
  | [] -> Alcotest.fail "no members"

let test_hash_join_equals_pointer_join () =
  let d = db () in
  let link = Pred.atom Pred.Eq (Pred.Field ("e", "dept")) (Pred.Self "d") in
  let hash =
    Operators.hash_join d Oodb_cost.Config.default [ link ]
      ~build:(Operators.file_scan d ~coll:"Departments" ~binding:"d" ~batch_size:8)
      ~probe:(Operators.file_scan d ~coll:"Employees" ~binding:"e" ~batch_size:8)
    |> Iterator.to_list
    |> List.map (fun env -> (Env.oid env "e", Env.oid env "d"))
    |> List.sort compare
  in
  let pointer =
    Operators.pointer_join d ~src:"e" ~field:(Some "dept") ~out:"d" ~residual:[]
      (Operators.file_scan d ~coll:"Employees" ~binding:"e" ~batch_size:8)
    |> Iterator.to_list
    |> List.map (fun env -> (Env.oid env "e", Env.oid env "d"))
    |> List.sort compare
  in
  Alcotest.(check bool) "non-empty" true (hash <> []);
  Alcotest.(check bool) "same pairs" true (hash = pointer)

let test_hash_join_residual () =
  let d = db () in
  let link = Pred.atom Pred.Eq (Pred.Field ("e", "dept")) (Pred.Self "d") in
  let residual = Pred.atom Pred.Ge (Pred.Field ("e", "age")) (Pred.Const (Value.Int 40)) in
  let rows =
    Operators.hash_join d Oodb_cost.Config.default [ link; residual ]
      ~build:(Operators.file_scan d ~coll:"Departments" ~binding:"d" ~batch_size:8)
      ~probe:(Operators.file_scan d ~coll:"Employees" ~binding:"e" ~batch_size:8)
    |> Iterator.to_list
  in
  List.iter
    (fun env ->
      match Store.field (Db.store d) (Env.obj env "e") "age" with
      | Value.Int a -> Alcotest.(check bool) "residual applied" true (a >= 40)
      | _ -> Alcotest.fail "age missing")
    rows

let test_setops () =
  let d = db () in
  let scan () = Operators.file_scan d ~coll:"Countries" ~binding:"n" ~batch_size:8 in
  let filter lo it =
    Operators.filter d [ Pred.atom Pred.Ge (Pred.Self "n") (Pred.Const (Value.Ref lo)) ] it
  in
  let store = Db.store d in
  let oids = Store.oids store ~coll:"Countries" in
  let mid = List.nth oids (List.length oids / 2) in
  let n_all = List.length oids in
  let high () = filter mid (scan ()) in
  let union = Iterator.to_list (Operators.hash_union ~batch_size:8 (scan ()) (high ())) in
  Alcotest.(check int) "union dedups" n_all (List.length union);
  let inter = Iterator.to_list (Operators.hash_intersect ~batch_size:8 (scan ()) (high ())) in
  let n_high = List.length (Iterator.to_list (high ())) in
  Alcotest.(check int) "intersection" n_high (List.length inter);
  let diff = Iterator.to_list (Operators.hash_difference ~batch_size:8 (scan ()) (high ())) in
  Alcotest.(check int) "difference" (n_all - n_high) (List.length diff)

let test_sort () =
  let d = db () in
  let it =
    Operators.sort d
      { Physprop.ord_binding = "n"; ord_field = Some "name" }
      ~batch_size:8
      (Operators.file_scan d ~coll:"Countries" ~binding:"n" ~batch_size:8)
  in
  let names =
    Iterator.to_list it |> List.map (fun env -> Store.field (Db.store d) (Env.obj env "n") "name")
  in
  let sorted = List.sort Value.compare names in
  Alcotest.(check bool) "sorted output" true (names = sorted)

let test_trim_enforces_properties () =
  let d = db () in
  (* a scan trimmed to nothing must raise on field access *)
  let it = Operators.trim [] (Operators.file_scan d ~coll:"Cities" ~binding:"c" ~batch_size:8) in
  Iterator.open_ it;
  (match Iterator.next it with
  | Some env ->
    Alcotest.check_raises "demoted to reference" (Env.Not_materialized "c") (fun () ->
        ignore (Env.obj env "c"))
  | None -> Alcotest.fail "no tuples");
  Iterator.close it

(* A failing operator must not leak its children: [Iterator.to_list]
   (the executor's drain) closes the whole tree before re-raising, and so
   does the hash join's drain of its build side. The spy records whether
   the scan underneath the exploding filter got its [close]. *)
let test_failing_predicate_closes_tree () =
  let d = db () in
  let closed = ref false in
  let inner = Operators.file_scan d ~coll:"Cities" ~binding:"c" ~batch_size:4 in
  let spy =
    Iterator.make_batched
      ~open_:(fun () ->
        closed := false;
        Iterator.open_ inner)
      ~next_batch:(fun () -> Iterator.next_batch inner)
      ~close:(fun () ->
        closed := true;
        Iterator.close inner)
  in
  (* the predicate references an unbound binding, so evaluation raises *)
  let boom =
    [ Pred.atom Pred.Eq (Pred.Field ("zzz", "f")) (Pred.Const (Value.Int 1)) ]
  in
  List.iter
    (fun (name, it) ->
      Alcotest.check_raises (name ^ ": predicate raises") (Env.Unbound "zzz") (fun () ->
          ignore (Iterator.to_list it));
      Alcotest.(check bool) (name ^ ": scan closed despite exception") true !closed)
    [ ("filter", Operators.filter d boom spy);
      ( "hash join build",
        Operators.hash_join d Oodb_cost.Config.default []
          ~build:(Operators.filter d boom spy)
          ~probe:(Operators.file_scan d ~coll:"Countries" ~binding:"n" ~batch_size:4) ) ]

(* A database of two collections, L and R, whose objects hold one field
   [k] each, and a hash join of L (build, binding [l]) with R (probe,
   binding [r]). *)
let keyed_db ?(r_bytes = 64) left right =
  let store = Store.create ~buffer_pages:64 () in
  List.iter
    (fun (coll, obj_bytes, keys) ->
      Store.declare_collection store ~name:coll ~cls:"K" ~obj_bytes;
      List.iter (fun k -> ignore (Store.insert store ~coll [ ("k", k) ])) keys)
    [ ("L", 64, left); ("R", r_bytes, right) ];
  Db.create (Oodb_catalog.Catalog.create (Oodb_catalog.Schema.create [])) store

let join_lr ?(batch = 4) ?(memory_bytes = Oodb_cost.Config.default.Oodb_cost.Config.memory_bytes)
    ?(probe = "R") d atoms =
  let scan coll binding = Operators.file_scan d ~coll ~binding ~batch_size:batch in
  let cfg = { Oodb_cost.Config.default with Oodb_cost.Config.batch_size = batch; memory_bytes } in
  Operators.hash_join d cfg atoms ~build:(scan "L" "l") ~probe:(scan probe "r")

let l_eq_r = [ Pred.atom Pred.Eq (Pred.Field ("l", "k")) (Pred.Field ("r", "k")) ]

let lr_pairs it = List.map (fun env -> (Env.oid env "l", Env.oid env "r")) (Iterator.to_list it)

(* A hash join must find exactly the pairs a filter over the cross
   product keeps, also for keys that are equal across Int and Float at
   the numeric boundaries, and never join values that merely collide in
   hash ([Int (5 + 0x9e37)] and [Ref 5]). *)
let test_hash_join_numeric_keys () =
  let keys = Helpers.numeric_boundary_values in
  Alcotest.(check int) "the pair collides in hash" (Value.hash (Value.Int (5 + 0x9e37)))
    (Value.hash (Value.Ref 5));
  let d = keyed_db (Value.Int (5 + 0x9e37) :: keys) (Value.Ref 5 :: keys) in
  let joined = List.sort compare (lr_pairs (join_lr d l_eq_r)) in
  let filtered = List.sort compare (lr_pairs (Operators.filter d l_eq_r (join_lr d []))) in
  Alcotest.(check bool) "some cross-type matches" true (List.length filtered > List.length keys);
  Alcotest.(check (list (pair int int))) "hash join == filtered cross product" filtered joined

(* Row order: probe tuples in arrival order, and each probe tuple's
   matches most recently built first. *)
let test_hash_join_match_order () =
  let d = keyed_db (List.init 6 (fun i -> Value.Int (i mod 2))) [ Value.Int 1; Value.Int 0 ] in
  let l = Array.of_list (Store.oids (Db.store d) ~coll:"L")
  and r = Array.of_list (Store.oids (Db.store d) ~coll:"R") in
  Alcotest.(check (list (pair int int))) "match order"
    [ (l.(5), r.(0)); (l.(3), r.(0)); (l.(1), r.(0)); (l.(4), r.(1)); (l.(2), r.(1)); (l.(0), r.(1)) ]
    (lr_pairs (join_lr d l_eq_r))

(* Reference-to-identity keys take the OID table. Its output, order
   included, must be the filtered cross product's, for the three key
   shapes, in memory and spilled, at batch sizes 1 and 4. L's keys
   (references into R) repeat targets and hold [Null] and an [Int]
   equal to an R object's OID, which matches no identity; R's keys
   (references into L) do the same. A spill writes each side's bytes:
   16 per tuple plus its object's collection size (64 for L, 1000 for
   R), rounded up to pages. *)
let test_hash_join_oid_keys () =
  let n_l = 9 in
  let l i = Value.Ref (1 + i) and r i = Value.Ref (n_l + 1 + i) in
  let left = [ r 0; r 1; r 0; Value.Null; r 4; r 0; Value.Int (n_l + 2); r 1; r 6 ]
  and right = [ l 2; l 2; Value.Null; Value.Int 4; l 8; l 0; l 2 ] in
  let d = keyed_db ~r_bytes:1000 left right in
  let disk = Store.disk (Db.store d) in
  let eq a b = [ Pred.atom Pred.Eq a b ] in
  let shapes =
    [ ("l.k == r.self", eq (Pred.Field ("l", "k")) (Pred.Self "r"), "R", 1000);
      ("l.self == r.k", eq (Pred.Self "l") (Pred.Field ("r", "k")), "R", 1000);
      ("l.self == r.self", eq (Pred.Self "l") (Pred.Self "r"), "L", 64) ]
  in
  let pages bytes = (bytes + Disk.page_size disk - 1) / Disk.page_size disk in
  List.iter
    (fun (shape, atoms, probe, probe_bytes) ->
      let expected = lr_pairs (Operators.filter d atoms (join_lr ~probe d [])) in
      Alcotest.(check bool) (shape ^ ": some matches") true (List.length expected >= 3);
      let n_probe = Store.cardinality (Db.store d) ~coll:probe in
      List.iter
        (fun (batch, memory_bytes) ->
          let label =
            Printf.sprintf "%s, batch %d, %s" shape batch
              (if memory_bytes = 0 then "spilled" else "in memory")
          in
          Disk.reset_stats disk;
          Alcotest.(check (list (pair int int))) label expected
            (lr_pairs (join_lr ~batch ~memory_bytes ~probe d atoms));
          let spill_writes =
            if memory_bytes = 0 then pages (n_l * (16 + 64)) + pages (n_probe * (16 + probe_bytes))
            else 0
          in
          Alcotest.(check int) (label ^ ": spill writes") spill_writes (Disk.stats disk).Disk.writes)
        [ (1, max_int); (4, max_int); (1, 0); (4, 0) ])
    shapes

(* A spilled join charges both partitions inside [open_]: build drain,
   build charge, whole probe drain, probe charge. Every disk read is then
   a buffer miss of the two scans or a re-read of a spilled page, and
   serving the output afterwards costs no disk or buffer-pool traffic. *)
let test_hash_join_spill_charged_at_open () =
  let d = keyed_db (List.init 40 (fun i -> Value.Int (i mod 7))) (List.init 30 (fun i -> Value.Int (i mod 5))) in
  let store = Db.store d in
  let disk = Store.disk store and buffer = Store.buffer store in
  let pages bytes = (bytes + Disk.page_size disk - 1) / Disk.page_size disk in
  let matches = List.length (lr_pairs (join_lr d l_eq_r)) in
  List.iter
    (fun batch ->
      let label s = Printf.sprintf "batch %d: %s" batch s in
      Oodb_storage.Buffer_pool.flush buffer;
      Disk.reset_stats disk;
      Oodb_storage.Buffer_pool.reset_stats buffer;
      let it = join_lr ~batch ~memory_bytes:0 d l_eq_r in
      Iterator.open_ it;
      let opened = Disk.stats disk and opened_buf = Oodb_storage.Buffer_pool.stats buffer in
      Alcotest.(check int) (label "both partitions written") (pages (40 * (16 + 64)) + pages (30 * (16 + 64)))
        opened.Disk.writes;
      Alcotest.(check int) (label "and re-read")
        (opened_buf.Oodb_storage.Buffer_pool.misses + opened.Disk.writes)
        (opened.Disk.seq_reads + opened.Disk.rand_reads);
      let rec drain n = match Iterator.next_batch it with Some b -> drain (n + Oodb_exec.Batch.length b) | None -> n in
      Alcotest.(check int) (label "every match served") matches (drain 0);
      Iterator.close it;
      Alcotest.(check bool) (label "no disk traffic after open") true (Disk.stats disk = opened);
      Alcotest.(check bool) (label "no buffer traffic after open") true
        (Oodb_storage.Buffer_pool.stats buffer = opened_buf))
    [ 1; 4 ]

(* Repeated keys on both sides make a many-to-many join, where one probe
   tuple parks several outputs: spilled, it must return the in-memory
   run's rows in the same order. *)
let test_hash_join_spill_many_to_many () =
  let d = keyed_db (List.init 23 (fun i -> Value.Int (i mod 4))) (List.init 17 (fun i -> Value.Int (i mod 3))) in
  List.iter
    (fun batch ->
      let in_memory = lr_pairs (join_lr ~batch d l_eq_r) in
      Alcotest.(check int) (Printf.sprintf "batch %d: matches" batch)
        ((6 * 6) + (6 * 6) + (6 * 5)) (List.length in_memory);
      Alcotest.(check (list (pair int int))) (Printf.sprintf "batch %d: spilled == in memory" batch)
        in_memory
        (lr_pairs (join_lr ~batch ~memory_bytes:0 d l_eq_r)))
    [ 1; 4; 64 ]

(* ------------------------------------------------------------------ *)
(* Executor on optimizer output                                         *)

let test_run_measured_resets () =
  let d = db () in
  let q = Oodb_workloads.Queries.q2 in
  let plan = Opt.plan_exn (Opt.optimize (cat ()) q) in
  let _, r1 = Executor.run_measured d plan in
  let _, r2 = Executor.run_measured d plan in
  Alcotest.(check int) "deterministic io" (r1.Executor.seq_reads + r1.Executor.rand_reads)
    (r2.Executor.seq_reads + r2.Executor.rand_reads)

let test_all_queries_execute () =
  let d = db () in
  let c = cat () in
  ignore c;
  List.iter
    (fun (name, q) ->
      let plan = Opt.plan_exn (Opt.optimize (Db.catalog d) q) in
      let rows = Executor.run d plan in
      Alcotest.(check bool) (name ^ " executes") true (List.length rows >= 0))
    Oodb_workloads.Queries.all

let test_malformed_plan_rejected () =
  let d = db () in
  let bad = node (Physical.Filter []) [] [] in
  Alcotest.(check bool) "arity checked" true
    (try
       ignore (Executor.run d bad);
       false
     with Invalid_argument _ -> true)

let test_missing_index_rejected () =
  let d = db () in
  let bad =
    node
      (Physical.Index_scan
         { coll = "Cities";
           binding = "c";
           index = "no_such_index";
           key = Value.Int 1;
           residual = [];
           derefs = [] })
      [] [ "c" ]
  in
  Alcotest.(check bool) "missing physical index" true
    (try
       ignore (Executor.run d bad);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Analyze (statistics refresh)                                         *)

let test_analyze () =
  (* a fresh db so catalog mutations don't leak into shared fixtures *)
  let d = Oodb_workloads.Datagen.generate ~scale:0.02 ~buffer_pages:64 () in
  let cat = Db.catalog d in
  let distinct_names = Oodb_exec.Analyze.distinct_values d ~coll:"Persons" ~field:"name" in
  Alcotest.(check bool) "plausible distinct count" true (distinct_names > 1);
  let avg = Oodb_exec.Analyze.average_set_size d ~coll:"Tasks" ~field:"team_members" in
  Alcotest.(check bool) "teams non-empty" true (avg > 1.0);
  let report = Oodb_exec.Analyze.refresh d in
  Alcotest.(check bool) "updated something" true
    (report.Oodb_exec.Analyze.attributes_updated > 0
    && report.Oodb_exec.Analyze.set_attributes_updated > 0
    && report.Oodb_exec.Analyze.indexes_updated = 3);
  Alcotest.(check (option int)) "measured stat stored" (Some distinct_names)
    (Oodb_catalog.Catalog.distinct cat ~cls:"Person" ~field:"name");
  (* the deliberately unstatisticized attribute stays that way *)
  Alcotest.(check (option int)) "Task.time untouched" None
    (Oodb_catalog.Catalog.distinct cat ~cls:"Task" ~field:"time");
  (* the optimizer still works against refreshed statistics *)
  let o = Opt.optimize cat Oodb_workloads.Queries.q2 in
  Alcotest.(check bool) "plan found" true (o.Opt.plan <> None)

(* ------------------------------------------------------------------ *)
(* Golden executor pins                                                 *)

(* Rows, row order and simulated I/O of the paper queries and one text
   per benchmark template on the scale-1 database, at batch sizes 64 and
   1. The batch size is passed to both the optimizer and the executor,
   so the OODB_BATCH_SIZE default cannot move a pin. Any change to the
   executor's tuple representation or operator internals must leave
   every pin bit-identical: simulated seconds are compared exactly. *)

type pin = { name : string; batch : int; digest : string; io : Executor.io_report }

(* Order-sensitive digest of a row list; floats by their exact bits. *)
let rows_digest rows =
  let rec value = function
    | Value.Float f -> Printf.sprintf "F%h" f
    | Value.Set vs -> "{" ^ String.concat ";" (List.map value vs) ^ "}"
    | v -> Value.to_string v
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun row ->
      List.iter (fun (k, v) -> Printf.bprintf b "%s=%s;" k (value v)) row;
      Buffer.add_char b '\n')
    rows;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pin_to_string p =
  let r = p.io in
  Printf.sprintf
    "{ name = %S; batch = %d; digest = %S; io = { Executor.rows = %d; seq_reads = %d; \
     rand_reads = %d; writes = %d; buffer_hits = %d; buffer_misses = %d; buffer_evictions = %d; \
     simulated_seconds = %h } }"
    p.name p.batch p.digest r.Executor.rows r.Executor.seq_reads r.Executor.rand_reads
    r.Executor.writes r.Executor.buffer_hits r.Executor.buffer_misses r.Executor.buffer_evictions
    r.Executor.simulated_seconds

let golden_pins =
  [
    { name = "q1"; batch = 64; digest = "85ed10001b64a538250bb84e32a0dd8a"; io = { Executor.rows = 5000; seq_reads = 3556; rand_reads = 7; writes = 0; buffer_hits = 987; buffer_misses = 3563; buffer_evictions = 2539; simulated_seconds = 0x1.1d51eb851eb85p+6 } };
    { name = "q2"; batch = 64; digest = "528e3859a369a7c66992f47d9d1850b3"; io = { Executor.rows = 2; seq_reads = 0; rand_reads = 4; writes = 0; buffer_hits = 0; buffer_misses = 4; buffer_evictions = 0; simulated_seconds = 0x1.46e1344d36a2cp-4 } };
    { name = "q3"; batch = 64; digest = "e6bb47ee4816f4d0bfe89b6a5f97dccd"; io = { Executor.rows = 2; seq_reads = 0; rand_reads = 6; writes = 0; buffer_hits = 0; buffer_misses = 6; buffer_evictions = 0; simulated_seconds = 0x1.fca1fa222b386p-4 } };
    { name = "q4"; batch = 64; digest = "a07b6c59b06750b58f75050c9b919fb9"; io = { Executor.rows = 5; seq_reads = 59; rand_reads = 24; writes = 0; buffer_hits = 19; buffer_misses = 83; buffer_evictions = 0; simulated_seconds = 0x1.80258d499c108p+0 } };
    { name = "fig2"; batch = 64; digest = "9645a7b3ee91c05100899eafc9dadd1a"; io = { Executor.rows = 4; seq_reads = 354; rand_reads = 10258; writes = 0; buffer_hits = 188; buffer_misses = 10612; buffer_evictions = 9588; simulated_seconds = 0x1.d47958c045d35p+6 } };
    { name = "fig3"; batch = 64; digest = "91cbf4aa0760286f81e2a2782cbd5a5d"; io = { Executor.rows = 90000; seq_reads = 10388; rand_reads = 4; writes = 6896; buffer_hits = 151; buffer_misses = 3496; buffer_evictions = 2472; simulated_seconds = 0x1.59c6b34dc4b42p+8 } };
    { name = "mayor-name"; batch = 64; digest = "b399e6e9a70a03887848228274b038b1"; io = { Executor.rows = 2; seq_reads = 0; rand_reads = 4; writes = 0; buffer_hits = 0; buffer_misses = 4; buffer_evictions = 0; simulated_seconds = 0x1.46e1344d36a2cp-4 } };
    { name = "employee-name"; batch = 64; digest = "0de8f489c6cc09db38cad43196080701"; io = { Executor.rows = 22; seq_reads = 0; rand_reads = 503; writes = 0; buffer_hits = 0; buffer_misses = 503; buffer_evictions = 0; simulated_seconds = 0x1.15017f2b907c1p+2 } };
    { name = "task-time"; batch = 64; digest = "970eae416118739594f5cdfe99da2139"; io = { Executor.rows = 10; seq_reads = 0; rand_reads = 12; writes = 0; buffer_hits = 0; buffer_misses = 12; buffer_evictions = 0; simulated_seconds = 0x1.3428fa0c35b94p-3 } };
    { name = "paper-q4"; batch = 64; digest = "6df556fa0379578c26927cf5d7880384"; io = { Executor.rows = 5; seq_reads = 59; rand_reads = 24; writes = 0; buffer_hits = 19; buffer_misses = 83; buffer_evictions = 0; simulated_seconds = 0x1.80258d499c108p+0 } };
    { name = "q1-location"; batch = 64; digest = "85ed10001b64a538250bb84e32a0dd8a"; io = { Executor.rows = 5000; seq_reads = 3556; rand_reads = 7; writes = 0; buffer_hits = 987; buffer_misses = 3563; buffer_evictions = 2539; simulated_seconds = 0x1.1d51eb851eb85p+6 } };
    { name = "fig1-floor-join"; batch = 64; digest = "86c48b8e6a9e1612dfad71f95fd4843c"; io = { Executor.rows = 5000; seq_reads = 3223; rand_reads = 2; writes = 0; buffer_hits = 12; buffer_misses = 3225; buffer_evictions = 2201; simulated_seconds = 0x1.02147ae147ae2p+6 } };
    { name = "salary-by-floor"; batch = 64; digest = "00327ef478a4a00c7f186d456bb21a3a"; io = { Executor.rows = 5000; seq_reads = 3223; rand_reads = 2; writes = 0; buffer_hits = 12; buffer_misses = 3225; buffer_evictions = 2201; simulated_seconds = 0x1.02147ae147ae2p+6 } };
    { name = "team-age-unnest"; batch = 64; digest = "7b34cab21b9fac9ba9cf877127896edb"; io = { Executor.rows = 48908; seq_reads = 8905; rand_reads = 4; writes = 5413; buffer_hits = 151; buffer_misses = 3496; buffer_evictions = 2472; simulated_seconds = 0x1.1e70f2ce2f90bp+8 } };
    { name = "emp-dept-job"; batch = 64; digest = "9c3f65fdcf3a12477c54c1ba8b7f4e0f"; io = { Executor.rows = 5000; seq_reads = 3535; rand_reads = 3; writes = 0; buffer_hits = 12; buffer_misses = 3538; buffer_evictions = 2514; simulated_seconds = 0x1.1b28f5c28f5c3p+6 } };
    { name = "city-person-country"; batch = 64; digest = "d788988f7291b9b8faf49581fa076e2a"; io = { Executor.rows = 2544; seq_reads = 424; rand_reads = 2905; writes = 0; buffer_hits = 2531; buffer_misses = 3329; buffer_evictions = 2305; simulated_seconds = 0x1.5386682c8c1ecp+5 } };
    { name = "emp-dept"; batch = 64; digest = "a90a61e7a8cd36ceb96b157c15c9ebdc"; io = { Executor.rows = 3000; seq_reads = 3223; rand_reads = 2; writes = 0; buffer_hits = 12; buffer_misses = 3225; buffer_evictions = 2201; simulated_seconds = 0x1.02147ae147ae2p+6 } };
    { name = "city-mat-chain"; batch = 64; digest = "159f14b2164599c84c058b8370c3e71e"; io = { Executor.rows = 32; seq_reads = 486; rand_reads = 1695; writes = 0; buffer_hits = 1047; buffer_misses = 2181; buffer_evictions = 1157; simulated_seconds = 0x1.d19081d262bf8p+4 } };
    { name = "task-unnest"; batch = 64; digest = "40e9e111c743786c5d01a2fe78e919d1"; io = { Executor.rows = 196; seq_reads = 3593; rand_reads = 3; writes = 0; buffer_hits = 163; buffer_misses = 3596; buffer_evictions = 2572; simulated_seconds = 0x1.1fccccccccccdp+6 } };
    { name = "q1"; batch = 1; digest = "85ed10001b64a538250bb84e32a0dd8a"; io = { Executor.rows = 5000; seq_reads = 3546; rand_reads = 17; writes = 0; buffer_hits = 53437; buffer_misses = 3563; buffer_evictions = 2539; simulated_seconds = 0x1.1db851eb851ebp+6 } };
    { name = "q2"; batch = 1; digest = "528e3859a369a7c66992f47d9d1850b3"; io = { Executor.rows = 2; seq_reads = 0; rand_reads = 4; writes = 0; buffer_hits = 0; buffer_misses = 4; buffer_evictions = 0; simulated_seconds = 0x1.46e1344d36a2cp-4 } };
    { name = "q3"; batch = 1; digest = "e6bb47ee4816f4d0bfe89b6a5f97dccd"; io = { Executor.rows = 2; seq_reads = 0; rand_reads = 6; writes = 0; buffer_hits = 0; buffer_misses = 6; buffer_evictions = 0; simulated_seconds = 0x1.fca1fa222b386p-4 } };
    { name = "q4"; batch = 1; digest = "a07b6c59b06750b58f75050c9b919fb9"; io = { Executor.rows = 5; seq_reads = 56; rand_reads = 27; writes = 0; buffer_hits = 19; buffer_misses = 83; buffer_evictions = 0; simulated_seconds = 0x1.a989c557d32d9p+0 } };
    { name = "fig2"; batch = 1; digest = "9645a7b3ee91c05100899eafc9dadd1a"; io = { Executor.rows = 4; seq_reads = 3; rand_reads = 10609; writes = 0; buffer_hits = 9708; buffer_misses = 10612; buffer_evictions = 9588; simulated_seconds = 0x1.f640e6decc698p+6 } };
    { name = "fig3"; batch = 1; digest = "91cbf4aa0760286f81e2a2782cbd5a5d"; io = { Executor.rows = 90000; seq_reads = 10388; rand_reads = 4; writes = 6896; buffer_hits = 56504; buffer_misses = 3496; buffer_evictions = 2472; simulated_seconds = 0x1.59c6b34dc4b42p+8 } };
    { name = "mayor-name"; batch = 1; digest = "b399e6e9a70a03887848228274b038b1"; io = { Executor.rows = 2; seq_reads = 0; rand_reads = 4; writes = 0; buffer_hits = 0; buffer_misses = 4; buffer_evictions = 0; simulated_seconds = 0x1.46e1344d36a2cp-4 } };
    { name = "employee-name"; batch = 1; digest = "0de8f489c6cc09db38cad43196080701"; io = { Executor.rows = 22; seq_reads = 0; rand_reads = 503; writes = 0; buffer_hits = 0; buffer_misses = 503; buffer_evictions = 0; simulated_seconds = 0x1.15017f2b907c1p+2 } };
    { name = "task-time"; batch = 1; digest = "970eae416118739594f5cdfe99da2139"; io = { Executor.rows = 10; seq_reads = 0; rand_reads = 12; writes = 0; buffer_hits = 0; buffer_misses = 12; buffer_evictions = 0; simulated_seconds = 0x1.3428fa0c35b94p-3 } };
    { name = "paper-q4"; batch = 1; digest = "6df556fa0379578c26927cf5d7880384"; io = { Executor.rows = 5; seq_reads = 56; rand_reads = 27; writes = 0; buffer_hits = 19; buffer_misses = 83; buffer_evictions = 0; simulated_seconds = 0x1.a989c557d32d9p+0 } };
    { name = "q1-location"; batch = 1; digest = "85ed10001b64a538250bb84e32a0dd8a"; io = { Executor.rows = 5000; seq_reads = 3546; rand_reads = 17; writes = 0; buffer_hits = 53437; buffer_misses = 3563; buffer_evictions = 2539; simulated_seconds = 0x1.1db851eb851ebp+6 } };
    { name = "fig1-floor-join"; batch = 1; digest = "86c48b8e6a9e1612dfad71f95fd4843c"; io = { Executor.rows = 5000; seq_reads = 3223; rand_reads = 2; writes = 0; buffer_hits = 47775; buffer_misses = 3225; buffer_evictions = 2201; simulated_seconds = 0x1.02147ae147ae2p+6 } };
    { name = "salary-by-floor"; batch = 1; digest = "00327ef478a4a00c7f186d456bb21a3a"; io = { Executor.rows = 5000; seq_reads = 3223; rand_reads = 2; writes = 0; buffer_hits = 47775; buffer_misses = 3225; buffer_evictions = 2201; simulated_seconds = 0x1.02147ae147ae2p+6 } };
    { name = "team-age-unnest"; batch = 1; digest = "7b34cab21b9fac9ba9cf877127896edb"; io = { Executor.rows = 48908; seq_reads = 8905; rand_reads = 4; writes = 5413; buffer_hits = 56504; buffer_misses = 3496; buffer_evictions = 2472; simulated_seconds = 0x1.1e70f2ce2f90bp+8 } };
    { name = "emp-dept-job"; batch = 1; digest = "9c3f65fdcf3a12477c54c1ba8b7f4e0f"; io = { Executor.rows = 5000; seq_reads = 3535; rand_reads = 3; writes = 0; buffer_hits = 52462; buffer_misses = 3538; buffer_evictions = 2514; simulated_seconds = 0x1.1b28f5c28f5c3p+6 } };
    { name = "city-person-country"; batch = 1; digest = "d788988f7291b9b8faf49581fa076e2a"; io = { Executor.rows = 2544; seq_reads = 249; rand_reads = 3080; writes = 0; buffer_hits = 12051; buffer_misses = 3329; buffer_evictions = 2305; simulated_seconds = 0x1.76f033366525ep+5 } };
    { name = "emp-dept"; batch = 1; digest = "a90a61e7a8cd36ceb96b157c15c9ebdc"; io = { Executor.rows = 3000; seq_reads = 3223; rand_reads = 2; writes = 0; buffer_hits = 47775; buffer_misses = 3225; buffer_evictions = 2201; simulated_seconds = 0x1.02147ae147ae2p+6 } };
    { name = "city-mat-chain"; batch = 1; digest = "159f14b2164599c84c058b8370c3e71e"; io = { Executor.rows = 32; seq_reads = 398; rand_reads = 1784; writes = 0; buffer_hits = 10708; buffer_misses = 2182; buffer_evictions = 1158; simulated_seconds = 0x1.f476f83dcd9dep+4 } };
    { name = "task-unnest"; batch = 1; digest = "40e9e111c743786c5d01a2fe78e919d1"; io = { Executor.rows = 196; seq_reads = 3593; rand_reads = 3; writes = 0; buffer_hits = 57404; buffer_misses = 3596; buffer_evictions = 2572; simulated_seconds = 0x1.1fccccccccccdp+6 } } ]

let same_pin a b =
  String.equal a.digest b.digest
  && a.io.Executor.rows = b.io.Executor.rows
  && a.io.Executor.seq_reads = b.io.Executor.seq_reads
  && a.io.Executor.rand_reads = b.io.Executor.rand_reads
  && a.io.Executor.writes = b.io.Executor.writes
  && a.io.Executor.buffer_hits = b.io.Executor.buffer_hits
  && a.io.Executor.buffer_misses = b.io.Executor.buffer_misses
  && a.io.Executor.buffer_evictions = b.io.Executor.buffer_evictions
  && Int64.equal
       (Int64.bits_of_float a.io.Executor.simulated_seconds)
       (Int64.bits_of_float b.io.Executor.simulated_seconds)

let test_golden_pins () =
  let d = Oodb_workloads.Datagen.generate () in
  let c = Db.catalog d in
  let queries =
    Oodb_workloads.Queries.all
    @ List.map
        (fun (name, text) -> (name, Zql.Simplify.compile_exn c text))
        Helpers.golden_texts
  in
  let actual =
    List.concat_map
      (fun batch ->
        let options = Options.with_batch_size batch Options.default in
        let config = { Oodb_cost.Config.default with Oodb_cost.Config.batch_size = batch } in
        List.map
          (fun (name, q) ->
            let plan = Opt.plan_exn (Opt.optimize ~options c q) in
            let rows, io = Executor.run_measured ~config d plan in
            { name; batch; digest = rows_digest rows; io })
          queries)
      [ 64; 1 ]
  in
  let mismatches =
    List.filter
      (fun p ->
        match List.find_opt (fun g -> g.name = p.name && g.batch = p.batch) golden_pins with
        | Some g -> not (same_pin g p)
        | None -> true)
      actual
  in
  if mismatches <> [] then
    Alcotest.failf "executor output moved off its golden pins; actual:\n%s"
      (String.concat "\n" (List.map pin_to_string mismatches));
  Alcotest.(check int) "every pin exercised" (List.length golden_pins) (List.length actual)

let () =
  Alcotest.run "exec"
    [ ( "env",
        [ Alcotest.test_case "bindings and slots" `Quick test_env_basics;
          Alcotest.test_case "predicate evaluation" `Quick test_eval;
          Alcotest.test_case "batch FIFO order" `Quick test_fifo_order ] );
      ( "operators",
        [ Alcotest.test_case "file scan" `Quick test_file_scan_counts;
          Alcotest.test_case "index scan == filter" `Quick test_index_scan_equals_filter;
          Alcotest.test_case "assembly materializes" `Quick test_assembly_materializes;
          Alcotest.test_case "assembly window invariance" `Quick test_assembly_window_sizes_agree;
          Alcotest.test_case "unnest reveals references" `Quick test_unnest;
          Alcotest.test_case "hash join == pointer join" `Quick test_hash_join_equals_pointer_join;
          Alcotest.test_case "hash join residual" `Quick test_hash_join_residual;
          Alcotest.test_case "hash join numeric boundary keys" `Quick test_hash_join_numeric_keys;
          Alcotest.test_case "hash join match order" `Quick test_hash_join_match_order;
          Alcotest.test_case "hash join OID keys" `Quick test_hash_join_oid_keys;
          Alcotest.test_case "spilled hash join charges at open" `Quick
            test_hash_join_spill_charged_at_open;
          Alcotest.test_case "spilled many-to-many hash join" `Quick
            test_hash_join_spill_many_to_many;
          Alcotest.test_case "set operations" `Quick test_setops;
          Alcotest.test_case "sort" `Quick test_sort;
          Alcotest.test_case "trim enforces properties" `Quick test_trim_enforces_properties;
          Alcotest.test_case "exception closes iterator tree" `Quick
            test_failing_predicate_closes_tree ] );
      ( "executor",
        [ Alcotest.test_case "measured runs reset stats" `Quick test_run_measured_resets;
          Alcotest.test_case "all paper queries execute" `Quick test_all_queries_execute;
          Alcotest.test_case "malformed plans rejected" `Quick test_malformed_plan_rejected;
          Alcotest.test_case "missing index rejected" `Quick test_missing_index_rejected ] );
      ("analyze", [ Alcotest.test_case "statistics refresh" `Quick test_analyze ]);
      ( "golden",
        [ Alcotest.test_case "rows and simulated I/O at batch 64 and 1" `Quick test_golden_pins ] ) ]

