module Value = Oodb_storage.Value
module Disk = Oodb_storage.Disk
module Buffer_pool = Oodb_storage.Buffer_pool
module Store = Oodb_storage.Store
module Btree_index = Oodb_storage.Btree_index

(* ------------------------------------------------------------------ *)
(* Value                                                                *)

let test_value_order () =
  Alcotest.(check bool) "int lt" true (Value.compare (Value.Int 1) (Value.Int 2) < 0);
  Alcotest.(check bool) "int/float numeric" true (Value.compare (Value.Int 2) (Value.Float 1.5) > 0);
  Alcotest.(check bool) "int/float equal" true (Value.equal (Value.Int 2) (Value.Float 2.0));
  Alcotest.(check bool) "str" true (Value.compare (Value.Str "a") (Value.Str "b") < 0);
  Alcotest.(check bool) "null lowest" true (Value.compare Value.Null (Value.Int min_int) < 0);
  Alcotest.(check bool) "set order" true
    (Value.compare (Value.Set [ Value.Int 1 ]) (Value.Set [ Value.Int 2 ]) < 0)

let test_value_date () =
  let d1992 = Value.date_of_ymd 1992 1 1 in
  let d1991 = Value.date_of_ymd 1991 12 31 in
  Alcotest.(check bool) "calendar order" true (d1991 < d1992);
  Alcotest.(check bool) "month order" true (Value.date_of_ymd 1992 2 1 > d1992)

let test_value_hash_consistent () =
  (* equal values (including cross int/float) must hash equally, also at
     the numeric boundaries *)
  Alcotest.(check int) "int/float hash" (Value.hash (Value.Int 7)) (Value.hash (Value.Float 7.0));
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if Value.equal a b && Value.hash a <> Value.hash b then
            Alcotest.failf "%s = %s but hashes differ" (Value.to_string a) (Value.to_string b))
        Helpers.numeric_boundary_values)
    Helpers.numeric_boundary_values;
  let big = 1_000_000_000_000_002 in
  Alcotest.(check bool) "int = float past 1e15" true
    (Value.equal (Value.Int big) (Value.Float (float_of_int big)));
  Alcotest.(check int) "and hash alike" (Value.hash (Value.Int big))
    (Value.hash (Value.Float (float_of_int big)));
  let two53 = 1 lsl 53 in
  Alcotest.(check bool) "2^53 + 1 rounds to 2^53" true
    (Value.equal (Value.Int (two53 + 1)) (Value.Float (float_of_int two53)));
  Alcotest.(check int) "and hashes alike" (Value.hash (Value.Int (two53 + 1)))
    (Value.hash (Value.Float (float_of_int two53)))

let test_value_helpers () =
  Alcotest.(check (option int)) "as_ref" (Some 42) (Value.as_ref (Value.Ref 42));
  Alcotest.(check (option int)) "as_ref not" None (Value.as_ref (Value.Int 42));
  Alcotest.(check int) "set elements" 2 (List.length (Value.set_elements (Value.Set [ Value.Int 1; Value.Int 2 ])));
  Alcotest.(check int) "null set empty" 0 (List.length (Value.set_elements Value.Null));
  Alcotest.check_raises "set_elements on int" (Invalid_argument "Value.set_elements: not a set")
    (fun () -> ignore (Value.set_elements (Value.Int 1)))

(* ------------------------------------------------------------------ *)
(* Disk                                                                 *)

let test_disk_sequential () =
  let d = Disk.create () in
  let seg = Disk.alloc_segment d ~name:"s" in
  Disk.extend d seg 10;
  for p = 0 to 9 do
    Disk.read d seg p
  done;
  let s = Disk.stats d in
  (* the head parks just before segment 0, so all reads stream *)
  Alcotest.(check int) "seq" 10 s.Disk.seq_reads;
  Alcotest.(check int) "rand" 0 s.Disk.rand_reads

let test_disk_random () =
  let d = Disk.create () in
  let seg = Disk.alloc_segment d ~name:"s" in
  Disk.extend d seg 10;
  Disk.read d seg 9;
  Disk.read d seg 0;
  Disk.read d seg 5;
  let s = Disk.stats d in
  Alcotest.(check int) "all random" 3 s.Disk.rand_reads;
  Alcotest.(check bool) "seeks accounted" true (s.Disk.seek_pages > 0)

let test_disk_bounds () =
  let d = Disk.create () in
  let seg = Disk.alloc_segment d ~name:"s" in
  Disk.extend d seg 2;
  Alcotest.check_raises "oob" (Invalid_argument "Disk: page 2 out of range in segment s (2 pages)")
    (fun () -> Disk.read d seg 2)

let test_disk_reset () =
  let d = Disk.create () in
  let seg = Disk.alloc_segment d ~name:"s" in
  Disk.extend d seg 1;
  Disk.read d seg 0;
  Disk.reset_stats d;
  let s = Disk.stats d in
  Alcotest.(check int) "reset" 0 (s.Disk.seq_reads + s.Disk.rand_reads)

(* ------------------------------------------------------------------ *)
(* Buffer pool                                                          *)

let test_buffer_hit () =
  let d = Disk.create () in
  let seg = Disk.alloc_segment d ~name:"s" in
  Disk.extend d seg 4;
  let b = Buffer_pool.create d ~capacity_pages:2 in
  Buffer_pool.read b seg 0;
  Buffer_pool.read b seg 0;
  let s = Buffer_pool.stats b in
  Alcotest.(check int) "hits" 1 s.Buffer_pool.hits;
  Alcotest.(check int) "misses" 1 s.Buffer_pool.misses

let test_buffer_lru_eviction () =
  let d = Disk.create () in
  let seg = Disk.alloc_segment d ~name:"s" in
  Disk.extend d seg 4;
  let b = Buffer_pool.create d ~capacity_pages:2 in
  Buffer_pool.read b seg 0;
  Buffer_pool.read b seg 1;
  Buffer_pool.read b seg 2;
  (* page 0 was least recently used *)
  Alcotest.(check bool) "0 evicted" false (Buffer_pool.contains b seg 0);
  Alcotest.(check bool) "1 resident" true (Buffer_pool.contains b seg 1);
  Alcotest.(check bool) "2 resident" true (Buffer_pool.contains b seg 2);
  (* touching 1 makes 2 the LRU *)
  Buffer_pool.read b seg 1;
  Buffer_pool.read b seg 3;
  Alcotest.(check bool) "2 evicted after touch" false (Buffer_pool.contains b seg 2);
  Alcotest.(check bool) "1 kept" true (Buffer_pool.contains b seg 1)

let test_buffer_capacity_never_exceeded () =
  let d = Disk.create () in
  let seg = Disk.alloc_segment d ~name:"s" in
  Disk.extend d seg 64;
  let b = Buffer_pool.create d ~capacity_pages:8 in
  for i = 0 to 63 do
    Buffer_pool.read b seg (i * 7 mod 64);
    Alcotest.(check bool) "within capacity" true (Buffer_pool.resident b <= 8)
  done

let test_buffer_flush () =
  let d = Disk.create () in
  let seg = Disk.alloc_segment d ~name:"s" in
  Disk.extend d seg 2;
  let b = Buffer_pool.create d ~capacity_pages:2 in
  Buffer_pool.read b seg 0;
  Buffer_pool.flush b;
  Alcotest.(check int) "empty" 0 (Buffer_pool.resident b);
  Buffer_pool.read b seg 0;
  Alcotest.(check int) "miss after flush" 2 (Buffer_pool.stats b).Buffer_pool.misses

(* ------------------------------------------------------------------ *)
(* Store                                                                *)

let mk_store () =
  let store = Store.create ~buffer_pages:16 () in
  Store.declare_collection store ~name:"Things" ~cls:"Thing" ~obj_bytes:1000;
  store

let test_store_insert_fetch () =
  let store = mk_store () in
  let oid = Store.insert store ~coll:"Things" [ ("x", Value.Int 7) ] in
  Store.fetch store oid;
  Alcotest.(check bool) "field" true (Value.equal (Value.Int 7) (Store.field store oid "x"));
  Alcotest.(check string) "class" "Thing" (Store.class_of store oid);
  Alcotest.(check int) "cardinality" 1 (Store.cardinality store ~coll:"Things")

let test_store_packing () =
  (* 1000-byte objects, 4096-byte pages: 4 per page *)
  let store = mk_store () in
  for i = 0 to 7 do
    ignore (Store.insert store ~coll:"Things" [ ("x", Value.Int i) ])
  done;
  Alcotest.(check int) "pages" 2 (Oodb_storage.Disk.segment_pages (Store.segment store ~coll:"Things"))

let test_store_scan_order_and_io () =
  let store = mk_store () in
  let oids = List.init 8 (fun i -> Store.insert store ~coll:"Things" [ ("x", Value.Int i) ]) in
  Disk.reset_stats (Store.disk store);
  let seen = ref [] in
  Store.scan store ~coll:"Things" (fun oid -> seen := oid :: !seen);
  Alcotest.(check (list int)) "insertion order" oids (List.rev !seen);
  let s = Disk.stats (Store.disk store) in
  Alcotest.(check int) "2 pages read" 2 (s.Disk.seq_reads + s.Disk.rand_reads)

let test_store_set_field () =
  let store = mk_store () in
  let oid = Store.insert store ~coll:"Things" [ ("x", Value.Int 1) ] in
  Store.set_field store oid "x" (Value.Int 2);
  Alcotest.(check bool) "updated" true (Value.equal (Value.Int 2) (Store.field store oid "x"))

(* One collection, two layouts: [a] objects carry x, y, z; [b] objects
   carry z, x (another order, y missing). *)
let test_store_layouts () =
  let store = mk_store () in
  let a i = [ ("x", Value.Int i); ("y", Value.Str (string_of_int i)); ("z", Value.Int (-i)) ] in
  let b i = [ ("z", Value.Int (-i)); ("x", Value.Int i) ] in
  let inserted = List.init 6 (fun i -> (if i mod 2 = 0 then a i else b i)) in
  let oids = List.map (Store.insert store ~coll:"Things") inserted in
  List.iter2
    (fun oid fields ->
      List.iter
        (fun (f, v) ->
          Alcotest.(check bool) ("field " ^ f) true (Value.equal v (Store.field store oid f)))
        fields)
    oids inserted;
  let rx = Store.reader store "x" and ry = Store.reader store "y" in
  List.iteri
    (fun i oid ->
      Alcotest.(check bool) "reader x across layouts" true
        (Value.equal (Value.Int i) (Store.get rx oid));
      if i mod 2 = 0 then
        Alcotest.(check bool) "reader y on layout a" true
          (Value.equal (Value.Str (string_of_int i)) (Store.get ry oid))
      else
        Alcotest.(check bool) "reader: no y on layout b" true (Store.get ry oid = Value.Null))
    oids;
  Alcotest.check_raises "missing field" Not_found (fun () ->
      ignore (Store.field store (List.nth oids 1) "y"));
  let names i = Store.field_names store (List.nth oids i) in
  Alcotest.(check (list string)) "layout a" [ "x"; "y"; "z" ] (names 2);
  Alcotest.(check (list string)) "layout b" [ "z"; "x" ] (names 3);
  Store.set_field store (List.nth oids 2) "x" (Value.Int 99);
  Store.set_field store (List.nth oids 3) "z" (Value.Int 99);
  List.iteri
    (fun i oid ->
      let x = if i = 2 then 99 else i and z = if i = 3 then 99 else -i in
      Alcotest.(check bool) "set_field x only its object" true
        (Value.equal (Value.Int x) (Store.field store oid "x"));
      Alcotest.(check bool) "set_field z only its object" true
        (Value.equal (Value.Int z) (Store.field store oid "z")))
    oids;
  Alcotest.(check (list string)) "names untouched" [ "x"; "y"; "z" ] (names 0)

(* A column keeps every value it is given: int codes beside [Null], the
   int that codes [Null] and a mixed column, sets of references beside
   other sets, and floats beside a later [Null]. Every read path answers
   what [Store.field] and [Value.compare] answer. *)
let test_store_columns () =
  let store = mk_store () in
  let values =
    [ [ Value.Null; Value.Int 3; Value.Null; Value.Int (-4) ];
      [ Value.Int 1; Value.Int min_int; Value.Int (min_int + 1); Value.Null ];
      [ Value.Date 7; Value.Int 7; Value.Bool true; Value.Ref 2 ];
      [ Value.Bool false; Value.Bool true; Value.Null; Value.Bool true ];
      [ Value.Set [ Value.Ref 1; Value.Ref 3 ]; Value.Null; Value.Set []; Value.Set [ Value.Ref 2 ] ];
      [ Value.Set [ Value.Ref 1 ]; Value.Set [ Value.Int 1; Value.Ref 4 ]; Value.Null; Value.Set [] ];
      [ Value.Float 1.5; Value.Float nan; Value.Null; Value.Float (-0.0) ];
      [ Value.Str "a"; Value.Null; Value.Str "b"; Value.Int 9 ] ]
  in
  let constants =
    [ Value.Int 3; Value.Int (-5); Value.Float 1.5; Value.Date 7; Value.Bool true; Value.Ref 2;
      Value.Str "a"; Value.Set [ Value.Ref 1 ] ]
  in
  let name i = Printf.sprintf "f%d" i in
  let oids =
    List.init 4 (fun row ->
        Store.insert store ~coll:"Things" (List.mapi (fun i col -> (name i, List.nth col row)) values))
  in
  List.iteri
    (fun i col ->
      let r = Store.reader store (name i) in
      List.iter2
        (fun oid v ->
          let label = Printf.sprintf "%s of %d" (name i) oid in
          let stored = Store.field store oid (name i) in
          Alcotest.(check string) label (Value.to_string v) (Value.to_string stored);
          Alcotest.(check string) (label ^ " by reader") (Value.to_string v)
            (Value.to_string (Store.get r oid));
          List.iter
            (fun k ->
              Alcotest.(check int)
                (Printf.sprintf "%s against %s" label (Value.to_string k))
                (if v = Value.Null then Store.null else Value.compare v k)
                (Store.compare_cell r oid k))
            constants;
          Alcotest.(check (option int)) (label ^ " ref cell") (Value.as_ref v)
            (match Store.ref_cell r oid with c when c = Store.null -> None | c -> Some c);
          match v with
          | Value.Set _ | Value.Null ->
            let refs = ref [] in
            Store.iter_set r oid (fun o -> refs := o :: !refs);
            Alcotest.(check (list int)) (label ^ " set")
              (List.filter_map Value.as_ref (Value.set_elements v))
              (List.rev !refs)
          | _ -> ())
        oids col)
    values;
  (* a second set assignment replaces the first *)
  let set_oid = List.nth oids 1 in
  Store.set_field store set_oid "f4" (Value.Set [ Value.Ref 4; Value.Ref 1 ]);
  Alcotest.(check string) "set replaced" "{@4; @1}"
    (Value.to_string (Store.field store set_oid "f4"));
  Alcotest.(check string) "neighbour kept" "{}"
    (Value.to_string (Store.field store (List.nth oids 2) "f4"))

let test_store_big_objects_span_pages () =
  let store = Store.create ~buffer_pages:16 () in
  Store.declare_collection store ~name:"Big" ~cls:"Big" ~obj_bytes:10_000;
  let oid = Store.insert store ~coll:"Big" [] in
  Disk.reset_stats (Store.disk store);
  Buffer_pool.flush (Store.buffer store);
  Store.fetch store oid;
  let s = Disk.stats (Store.disk store) in
  Alcotest.(check int) "3 pages per object" 3 (s.Disk.seq_reads + s.Disk.rand_reads)

let test_store_errors () =
  let store = mk_store () in
  Alcotest.check_raises "dup" (Invalid_argument "Store.declare_collection: duplicate collection Things")
    (fun () -> Store.declare_collection store ~name:"Things" ~cls:"T" ~obj_bytes:8);
  Alcotest.check_raises "unknown" (Invalid_argument "Store: unknown collection Nope") (fun () ->
      ignore (Store.cardinality store ~coll:"Nope"));
  Alcotest.check_raises "dangling" Not_found (fun () -> Store.fetch store 424242)

(* ------------------------------------------------------------------ *)
(* B-tree index                                                         *)

let mk_indexed_store n =
  let store = Store.create ~buffer_pages:64 () in
  Store.declare_collection store ~name:"Nums" ~cls:"Num" ~obj_bytes:64;
  let oids = List.init n (fun i -> Store.insert store ~coll:"Nums" [ ("v", Value.Int (i mod 10)) ]) in
  let ix =
    Btree_index.build store ~name:"nums_v" ~coll:"Nums"
      ~key:(fun oid -> Store.field store oid "v")
  in
  (store, oids, ix)

let test_btree_lookup () =
  let store, _, ix = mk_indexed_store 100 in
  let hits = Btree_index.lookup ix (Value.Int 3) in
  Alcotest.(check int) "10 matches" 10 (List.length hits);
  List.iter
    (fun oid ->
      Alcotest.(check bool) "key matches" true
        (Value.equal (Value.Int 3) (Store.field store oid "v")))
    hits;
  Alcotest.(check int) "miss" 0 (List.length (Btree_index.lookup ix (Value.Int 77)))

let test_btree_range () =
  let _, _, ix = mk_indexed_store 100 in
  let hits = Btree_index.lookup_range ix ~lo:(Some (Value.Int 8)) ~hi:None in
  Alcotest.(check int) "8 and 9" 20 (List.length hits);
  let all = Btree_index.lookup_range ix ~lo:None ~hi:None in
  Alcotest.(check int) "all" 100 (List.length all)

let test_btree_stats () =
  let _, _, ix = mk_indexed_store 100 in
  Alcotest.(check int) "entries" 100 (Btree_index.entry_count ix);
  Alcotest.(check int) "distinct" 10 (Btree_index.distinct_keys ix);
  Alcotest.(check bool) "height" true (Btree_index.height ix >= 1)

let test_btree_charges_io () =
  let store, _, ix = mk_indexed_store 100 in
  Disk.reset_stats (Store.disk store);
  Buffer_pool.flush (Store.buffer store);
  ignore (Btree_index.lookup ix (Value.Int 3));
  let s = Disk.stats (Store.disk store) in
  Alcotest.(check bool) "descent charged" true (s.Disk.seq_reads + s.Disk.rand_reads >= 1)

let test_btree_empty () =
  let store = Store.create () in
  Store.declare_collection store ~name:"Empty" ~cls:"E" ~obj_bytes:8;
  let ix = Btree_index.build store ~name:"e" ~coll:"Empty" ~key:(fun _ -> Value.Null) in
  Alcotest.(check int) "no entries" 0 (Btree_index.entry_count ix);
  Alcotest.(check int) "no hits" 0 (List.length (Btree_index.lookup ix (Value.Int 1)))

(* A full cursor drain against one [lookup] of the same key, each from a
   flushed pool with the disk head parked on the same page: same OIDs in
   the same order, same disk and buffer-pool deltas, and nothing charged
   once the cursor is exhausted. The counters are reset before each run,
   so the float seek units of both runs are summed from 0 in the same
   order and compare exactly. Tiny pages (fanout 4) spread one key's
   entries over several leaves under a multi-level tree. *)
let cursor_drain_matches_lookup values probe =
  let store = Store.create ~page_size:64 ~buffer_pages:8 () in
  Store.declare_collection store ~name:"C" ~cls:"C" ~obj_bytes:16;
  List.iter (fun v -> ignore (Store.insert store ~coll:"C" [ ("v", Value.Int v) ])) values;
  let ix =
    Btree_index.build store ~name:"ix" ~coll:"C" ~key:(fun oid -> Store.field store oid "v")
  in
  let disk = Store.disk store and buffer = Store.buffer store in
  let park = Disk.alloc_segment disk ~name:"park" in
  Disk.extend disk park 1;
  let measure run =
    Buffer_pool.flush buffer;
    Disk.read disk park 0;
    Disk.reset_stats disk;
    Buffer_pool.reset_stats buffer;
    let oids = run () in
    (oids, Disk.stats disk, Buffer_pool.stats buffer)
  in
  let expected = measure (fun () -> Btree_index.lookup ix (Value.Int probe)) in
  List.for_all
    (fun n ->
      let c = Btree_index.cursor ix (Value.Int probe) in
      let rec drain acc =
        match Btree_index.next_batch c ~n Fun.id with
        | [||] -> List.concat (List.rev acc)
        | oids ->
          if Array.length oids > n then Alcotest.failf "batch of %d > %d" (Array.length oids) n;
          drain (Array.to_list oids :: acc)
      in
      let actual = measure (fun () -> drain []) in
      let after = Disk.stats disk and pool_after = Buffer_pool.stats buffer in
      let again = Btree_index.next_batch c ~n Fun.id in
      actual = expected && again = [||]
      && Disk.stats disk = after
      && Buffer_pool.stats buffer = pool_after)
    [ 1; 3; 64 ]

let test_btree_cursor () =
  Alcotest.(check bool) "empty index" true (cursor_drain_matches_lookup [] 1);
  let values = List.init 120 (fun i -> i mod 3) in
  Alcotest.(check bool) "key over many leaves" true (cursor_drain_matches_lookup values 1);
  Alcotest.(check bool) "missing key inside the range" true
    (cursor_drain_matches_lookup (List.map (( * ) 2) values) 1);
  Alcotest.(check bool) "missing key past the end" true (cursor_drain_matches_lookup values 7)

(* ------------------------------------------------------------------ *)
(* Property-based                                                       *)

let value_gen =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      let base =
        oneof
          [ return Value.Null;
            map (fun b -> Value.Bool b) bool;
            map (fun i -> Value.Int i) small_signed_int;
            map (fun f -> Value.Float f) (float_bound_inclusive 1000.0);
            map (fun s -> Value.Str s) (string_size (int_bound 8));
            map (fun d -> Value.Date d) small_nat;
            map (fun r -> Value.Ref r) small_nat ]
      in
      if n <= 0 then base
      else oneof [ base; map (fun vs -> Value.Set vs) (list_size (int_bound 3) (self (n / 4))) ])

let prop_compare_antisym =
  QCheck2.Test.make ~name:"Value.compare antisymmetric" ~count:500
    QCheck2.Gen.(pair value_gen value_gen)
    (fun (a, b) ->
      let c1 = Value.compare a b and c2 = Value.compare b a in
      (c1 = 0 && c2 = 0) || (c1 < 0 && c2 > 0) || (c1 > 0 && c2 < 0))

let prop_compare_trans =
  QCheck2.Test.make ~name:"Value.compare transitive" ~count:500
    QCheck2.Gen.(triple value_gen value_gen value_gen)
    (fun (a, b, c) ->
      let sorted = List.sort Value.compare [ a; b; c ] in
      match sorted with
      | [ x; y; z ] -> Value.compare x y <= 0 && Value.compare y z <= 0 && Value.compare x z <= 0
      | _ -> false)

let prop_equal_hash =
  QCheck2.Test.make ~name:"equal values hash equally" ~count:500
    QCheck2.Gen.(pair value_gen value_gen)
    (fun (a, b) -> (not (Value.equal a b)) || Value.hash a = Value.hash b)

let prop_btree_matches_scan =
  QCheck2.Test.make ~name:"btree lookup == linear scan" ~count:50
    QCheck2.Gen.(pair (list_size (int_bound 200) (int_bound 20)) (int_bound 20))
    (fun (values, probe) ->
      let store = Store.create ~buffer_pages:64 () in
      Store.declare_collection store ~name:"C" ~cls:"C" ~obj_bytes:32;
      let oids = List.map (fun v -> Store.insert store ~coll:"C" [ ("v", Value.Int v) ]) values in
      let ix =
        Btree_index.build store ~name:"ix" ~coll:"C"
          ~key:(fun oid -> Store.field store oid "v")
      in
      let expected =
        List.filter
          (fun oid -> Value.equal (Value.Int probe) (Store.field store oid "v"))
          oids
        |> List.sort compare
      in
      let actual = Btree_index.lookup ix (Value.Int probe) |> List.sort compare in
      expected = actual)

(* An open range lists every entry, in (key, OID) order: the order of a
   list-sort model, over few distinct keys and some [Null]s. *)
let prop_btree_full_range_order =
  QCheck2.Test.make ~name:"btree full range, (key, OID) order" ~count:100
    QCheck2.Gen.(list_size (int_bound 300) (opt ~ratio:0.9 (int_bound 6)))
    (fun keys ->
      let store = Store.create ~buffer_pages:64 () in
      Store.declare_collection store ~name:"C" ~cls:"C" ~obj_bytes:32;
      let value = function Some k -> Value.Int k | None -> Value.Null in
      let entries =
        List.map (fun k -> (value k, Store.insert store ~coll:"C" [ ("v", value k) ])) keys
      in
      let ix =
        Btree_index.build store ~name:"ix" ~coll:"C"
          ~key:(fun oid -> Store.field store oid "v")
      in
      let model =
        List.sort
          (fun (ka, a) (kb, b) ->
            let c = Value.compare ka kb in
            if c <> 0 then c else Int.compare a b)
          entries
        |> List.map snd
      in
      Btree_index.lookup_range ix ~lo:None ~hi:None = model)

let prop_lru_capacity =
  QCheck2.Test.make ~name:"LRU pool never exceeds capacity" ~count:50
    QCheck2.Gen.(pair (int_range 1 8) (list_size (int_bound 100) (int_bound 30)))
    (fun (cap, accesses) ->
      let d = Disk.create () in
      let seg = Disk.alloc_segment d ~name:"s" in
      Disk.extend d seg 31;
      let b = Buffer_pool.create d ~capacity_pages:cap in
      List.for_all
        (fun p ->
          Buffer_pool.read b seg p;
          Buffer_pool.resident b <= cap)
        accesses)

let prop_btree_cursor =
  QCheck2.Test.make ~name:"btree cursor drain == lookup" ~count:100
    QCheck2.Gen.(pair (list_size (int_bound 200) (int_bound 9)) (int_bound 12))
    (fun (values, probe) -> cursor_drain_matches_lookup values probe)

(* The pool against a list-based LRU model (most recently used first):
   after every read or flush, the counters, the resident count and
   [contains] for every page of both segments agree. 32 page addresses
   share a page table of at most 16 slots, so home slots collide, probe
   runs wrap around, and evictions shift entries back. *)
type lru_op = Read of int * int | Flush

let prop_lru_model =
  QCheck2.Test.make ~name:"LRU pool == list model" ~count:300
    QCheck2.Gen.(
      pair (int_range 1 8)
        (list_size (int_bound 300)
           (frequency
              [ (1, return Flush); (30, map2 (fun s p -> Read (s, p)) (int_bound 1) (int_bound 15)) ])))
    (fun (cap, ops) ->
      let d = Disk.create () in
      let segs = Array.init 2 (fun i -> Disk.alloc_segment d ~name:(string_of_int i)) in
      Array.iter (fun seg -> Disk.extend d seg 16) segs;
      let b = Buffer_pool.create d ~capacity_pages:cap in
      let model = ref [] and hits = ref 0 and misses = ref 0 and evictions = ref 0 in
      let step = function
        | Flush ->
          Buffer_pool.flush b;
          model := []
        | Read (s, p) ->
          Buffer_pool.read b segs.(s) p;
          if List.mem (s, p) !model then begin
            incr hits;
            model := (s, p) :: List.filter (( <> ) (s, p)) !model
          end
          else begin
            incr misses;
            if List.length !model = cap then begin
              incr evictions;
              model := List.filteri (fun i _ -> i < cap - 1) !model
            end;
            model := (s, p) :: !model
          end
      in
      List.for_all
        (fun op ->
          step op;
          let st = Buffer_pool.stats b in
          st.Buffer_pool.hits = !hits && st.Buffer_pool.misses = !misses
          && st.Buffer_pool.evictions = !evictions
          && Buffer_pool.resident b = List.length !model
          && List.for_all
               (fun s ->
                 List.for_all
                   (fun p -> Buffer_pool.contains b segs.(s) p = List.mem (s, p) !model)
                   (List.init 16 Fun.id))
               [ 0; 1 ])
        ops)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "storage"
    [ ( "value",
        [ Alcotest.test_case "total order basics" `Quick test_value_order;
          Alcotest.test_case "date encoding" `Quick test_value_date;
          Alcotest.test_case "hash consistency" `Quick test_value_hash_consistent;
          Alcotest.test_case "helpers" `Quick test_value_helpers ] );
      ( "disk",
        [ Alcotest.test_case "sequential accounting" `Quick test_disk_sequential;
          Alcotest.test_case "random accounting" `Quick test_disk_random;
          Alcotest.test_case "bounds check" `Quick test_disk_bounds;
          Alcotest.test_case "stats reset" `Quick test_disk_reset ] );
      ( "buffer",
        [ Alcotest.test_case "hit/miss" `Quick test_buffer_hit;
          Alcotest.test_case "LRU eviction" `Quick test_buffer_lru_eviction;
          Alcotest.test_case "capacity bound" `Quick test_buffer_capacity_never_exceeded;
          Alcotest.test_case "flush" `Quick test_buffer_flush ] );
      ( "store",
        [ Alcotest.test_case "insert/fetch" `Quick test_store_insert_fetch;
          Alcotest.test_case "dense packing" `Quick test_store_packing;
          Alcotest.test_case "scan order and IO" `Quick test_store_scan_order_and_io;
          Alcotest.test_case "set_field" `Quick test_store_set_field;
          Alcotest.test_case "columns keep every value" `Quick test_store_columns;
          Alcotest.test_case "two layouts in one collection" `Quick test_store_layouts;
          Alcotest.test_case "multi-page objects" `Quick test_store_big_objects_span_pages;
          Alcotest.test_case "errors" `Quick test_store_errors ] );
      ( "btree",
        [ Alcotest.test_case "equality lookup" `Quick test_btree_lookup;
          Alcotest.test_case "range lookup" `Quick test_btree_range;
          Alcotest.test_case "statistics" `Quick test_btree_stats;
          Alcotest.test_case "charges IO" `Quick test_btree_charges_io;
          Alcotest.test_case "empty index" `Quick test_btree_empty;
          Alcotest.test_case "cursor drain charges one lookup" `Quick test_btree_cursor ] );
      ( "properties",
        qcheck
          [ prop_compare_antisym;
            prop_compare_trans;
            prop_equal_hash;
            prop_btree_matches_scan;
            prop_btree_full_range_order;
            prop_btree_cursor;
            prop_lru_capacity;
            prop_lru_model ] ) ]
