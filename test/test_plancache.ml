(* Plan cache & multi-query optimization: differential tests (warm-cache
   plans identical to cold ones, shared-memo batches identical in rows to
   per-query optimization), fingerprint canonicalization properties over
   seeded random expressions, invalidation on catalog epoch bumps, and
   the zero-rework guarantees (no rule firings, no logical-property
   derivations on a warm path). *)

module Value = Oodb_storage.Value
module Logical = Oodb_algebra.Logical
module Pred = Oodb_algebra.Pred
module Catalog = Oodb_catalog.Catalog
module OC = Oodb_catalog.Open_oodb_catalog
module Cost = Oodb_cost.Cost
module Config = Oodb_cost.Config
module Opt = Open_oodb.Optimizer
module Options = Open_oodb.Options
module Physprop = Open_oodb.Physprop
module Engine = Open_oodb.Model.Engine
module Db = Oodb_exec.Db
module Q = Oodb_workloads.Queries
module Metrics = Oodb_obs.Metrics
module Prng = Oodb_util.Prng
module Fingerprint = Oodb_plancache.Fingerprint
module Lru = Oodb_plancache.Lru
module Plancache = Oodb_plancache.Plancache

let plan_repr = function
  | None -> "<no plan>"
  | Some p ->
    Format.asprintf "%a cost=%a" Engine.pp_plan p Cost.pp p.Engine.cost

let check_same_plan msg a b = Alcotest.(check string) msg (plan_repr a) (plan_repr b)

(* ------------------------------------------------------------------ *)
(* LRU                                                                 *)

let always () () _ = true

let test_lru_basics () =
  let l = Lru.create ~capacity:2 in
  Alcotest.(check (option string)) "evict on 1st add" None (Lru.add l "a" "1");
  Alcotest.(check (option string)) "evict on 2nd add" None (Lru.add l "b" "2");
  Alcotest.(check (option string)) "miss" None (Lru.find l "z" always () ());
  Alcotest.(check (option string)) "hit" (Some "1") (Lru.find l "a" always () ());
  (* "a" is now MRU, so a third insertion evicts "b" *)
  Alcotest.(check (option string)) "lru evicted" (Some "b") (Lru.add l "c" "3");
  Alcotest.(check (list string)) "mru order" [ "c"; "a" ]
    (List.map fst (Lru.items l));
  (* replacement promotes but never evicts *)
  Alcotest.(check (option string)) "replace" None (Lru.add l "a" "1'");
  Alcotest.(check (list string)) "replace promotes" [ "a"; "c" ]
    (List.map fst (Lru.items l));
  let c = Lru.counters l in
  Alcotest.(check int) "hits" 1 c.Lru.hits;
  Alcotest.(check int) "misses" 1 c.Lru.misses;
  Alcotest.(check int) "insertions" 3 c.Lru.insertions;
  Alcotest.(check int) "evictions" 1 c.Lru.evictions;
  (* an entry found but not valid is a miss, and stays for [add] *)
  Alcotest.(check (option string)) "invalid entry" None
    (Lru.find l "c" (fun () () v -> v <> "3") () ());
  Alcotest.(check (list string)) "not promoted, not removed" [ "a"; "c" ]
    (List.map fst (Lru.items l));
  let c = Lru.counters l in
  Alcotest.(check int) "invalid counts no hit" 1 c.Lru.hits;
  Alcotest.(check int) "invalid counts a miss" 2 c.Lru.misses;
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Lru.create: capacity must be >= 1") (fun () ->
      ignore (Lru.create ~capacity:0))

(* ------------------------------------------------------------------ *)
(* Fingerprints: hand-written invariants                               *)

let fp ?(options = Options.default) ?(required = Physprop.empty) q =
  Fingerprint.make ~options ~required q

let test_fingerprint_alpha_invariance () =
  let q2_renamed =
    Logical.get ~coll:"Cities" ~binding:"city"
    |> Logical.mat ~src:"city" ~field:"mayor"
    |> Logical.select [ Pred.atom Pred.Eq (Pred.Field ("city.mayor", "name"))
                          (Pred.Const (Value.Str "Joe")) ]
  in
  Alcotest.(check bool) "q2 alpha-renamed shares the fingerprint" true
    (Fingerprint.equal (fp Q.q2) (fp q2_renamed));
  Alcotest.(check bool) "canonical forms coincide" true
    (Logical.equal (Fingerprint.canonical Q.q2) (Fingerprint.canonical q2_renamed))

let test_fingerprint_conjunct_order () =
  let swapped =
    (* q4 with its two conjuncts reversed and one atom mirrored *)
    Logical.get ~coll:"Tasks" ~binding:"t"
    |> Logical.unnest ~out:"m" ~src:"t" ~field:"team_members"
    |> Logical.mat_ref ~out:"e" ~src:"m"
    |> Logical.select
         [ Pred.atom Pred.Eq (Pred.Const (Value.Int 100)) (Pred.Field ("t", "time"));
           Pred.atom Pred.Eq (Pred.Field ("e", "name")) (Pred.Const (Value.Str "Fred")) ]
  in
  Alcotest.(check bool) "conjunct order and atom mirroring are canonicalized" true
    (Fingerprint.equal (fp Q.q4) (fp swapped))

let test_fingerprint_sensitivity () =
  let distinct msg a b =
    Alcotest.(check bool) msg false (Fingerprint.equal a b)
  in
  distinct "different queries differ" (fp Q.q1) (fp Q.q2);
  distinct "disabling a rule splits entries" (fp Q.q1)
    (fp ~options:(Options.disable "mat-to-join" Options.default) Q.q1);
  distinct "required order splits entries" (fp Q.q3)
    (fp
       ~required:
         { Physprop.empty with
           Physprop.order = Some { Physprop.ord_binding = "c"; ord_field = Some "name" } }
       Q.q3);
  (* explicit projection aliases name result columns: not alpha-noise *)
  let alias name =
    Q.q2 |> Logical.project [ { Logical.p_expr = Pred.Field ("c", "name"); p_name = name } ]
  in
  distinct "projection aliases are preserved" (fp (alias "a")) (fp (alias "b"))

(* The key names no catalog; the entry's read set decides. A
   [bump_epoch], a write to a statistic the plan read (of an equal
   value too, or of one that was absent) and a lookup under another
   catalog each miss; a write to a statistic it did not read hits. An
   optimization that raises ends its recording. *)
let test_fingerprint_epoch () =
  let cat = OC.catalog_with_indexes () in
  let pc = Plancache.create () in
  let cached ?(cat = cat) q = (Plancache.optimize pc cat q).Plancache.cached in
  Alcotest.(check bool) "first lookup misses" false (cached Q.q2);
  Alcotest.(check bool) "stable across no-op" true (cached Q.q2);
  Catalog.set_distinct cat ~cls:"Department" ~field:"floor" 4;
  Alcotest.(check bool) "a write to an unread statistic hits" true (cached Q.q2);
  Catalog.bump_epoch cat;
  Alcotest.(check bool) "epoch bump misses" false (cached Q.q2);
  Alcotest.(check bool) "the replaced entry hits" true (cached Q.q2);
  let n = Option.get (Catalog.distinct cat ~cls:"Person" ~field:"name") in
  Catalog.set_distinct cat ~cls:"Person" ~field:"name" n;
  Alcotest.(check bool) "re-recording a statistic it read misses" false (cached Q.q2);
  Alcotest.(check bool) "and hits after" true (cached Q.q2);
  Alcotest.(check bool) "a catalog with equal contents misses" false
    (cached ~cat:(OC.catalog_with_indexes ()) Q.q2);
  Alcotest.(check bool) "catalog content splits entries" false
    (cached ~cat:(OC.catalog ()) Q.q2);
  ignore (cached Q.q4);
  Alcotest.(check bool) "q4 hits" true (cached Q.q4);
  Catalog.set_distinct cat ~cls:"Employee" ~field:"name" 100;
  Alcotest.(check bool) "setting an absent statistic it read misses" false (cached Q.q4);
  (match Plancache.optimize pc cat (Logical.get ~coll:"Nope" ~binding:"x") with
  | _ -> Alcotest.fail "an ill-formed query must raise"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "a raising optimization ends its recording" false (cached Q.q1)

(* ------------------------------------------------------------------ *)
(* Fingerprints: pinned keys                                           *)

(* The key decides which queries share a plan, so it must stay
   byte-identical across changes to how it is computed; each pin is the
   MD5 of the key string. The key names no catalog: the pins were
   re-recorded when its catalog part (epoch and digest) was deleted,
   and each equals the MD5 of the earlier key string with that part cut
   out, so nothing else moved. Each query is pinned under three option values
   (default, pruning off, mat-to-join disabled), at an explicit batch
   size because [Options.default] reads [OODB_BATCH_SIZE]. The benchmark
   template texts are compiled on the scale-1 database's catalog. *)
let golden_key_pins =
  [ ("paper", "q1", [ "5870e068a167fcb0c2911adb9ba6d6f7"; "4e4273f4192c473773c73a77c3899354"; "0f6d1dc93be739a83168a2b349ed2a19" ]);
    ("paper", "q2", [ "664f9b41f86aafa49c7fc0ff70fee9e1"; "737d8a6bc3a80753cb6243d350f92ccf"; "ac232f262591a65ffc523387a30b5236" ]);
    ("paper", "q3", [ "51ebe597390f04006cfcabcb6f022ba1"; "8a4338aee1157ca3dec5b0a4de1b3894"; "250d741b6038d9e6df6cecc6eadd2af7" ]);
    ("paper", "q4", [ "fd813048a88b4521bb7dc0f07b551585"; "358ce0028afad942addc32514a258051"; "c5eba321f5da84d7cb2fae27817d866e" ]);
    ("paper", "fig2", [ "c3c01e077c1136fa5414f53bc63970e2"; "1e134b2b9f57a3743682a52aa840c6d1"; "8e1d894a71dd3476e30d5a6f6e7ffd2a" ]);
    ("paper", "fig3", [ "47fcbc5be2240450225c2fb6adf89567"; "0f611ce5e1a95c56b8e2ba09398454f1"; "c6310959638aedd594abf0a013760d30" ]);
    ("scale-1", "mayor-name", [ "ea7dd9d692527c974498856b354e8d98"; "ee2e875e860c965d5c4fde7a18083081"; "1a37a7c7569ecd36293dd8cf135a878f" ]);
    ("scale-1", "employee-name", [ "f9f31d22be52d3d3a533f37cd1f41a30"; "139a62d4a4b90e3b1bb8238054e22a2d"; "771f2e812e38d76e877ca3f6cc433661" ]);
    ("scale-1", "task-time", [ "ef7a1d9c8bef618ab802e8fedd6a975f"; "64aec70769876deb893f9c7253de16b7"; "d83b88225a09dfcb4d610ac7887de918" ]);
    ("scale-1", "paper-q4", [ "f79e38da4c8d5d3e1d4efe827bc05833"; "71c468e9b8da5b376838fdb0858d0ab5"; "e35431d3612fd1e265830861a0c784ff" ]);
    ("scale-1", "q1-location", [ "a547a58052d130f7ccfcfbb9baccdffe"; "a9f7168102c93609461c514a02358058"; "214e25e7f6848d3824dac3c6e075705f" ]);
    ("scale-1", "fig1-floor-join", [ "8706d01f029dce9264cf36b8b597c910"; "af6fcd8d396785887770229d51ec3ccf"; "56b2dcc2ea4f36ec5263e04e99ca6c2b" ]);
    ("scale-1", "salary-by-floor", [ "f4a22a4d30071c6a27e5c29cc57eb8a7"; "163545ba58c908e8093d6336158b7d62"; "847bc3973f8eced1b81b55818c4ac0e3" ]);
    ("scale-1", "team-age-unnest", [ "8b27c9864ed3453d3559c920d441172f"; "bd89e7ba838f998514f995536e2f263c"; "23ba741462bcc313d7428a9cb62ee746" ]);
    ("scale-1", "emp-dept-job", [ "dd88f5e6ce9641746931652e3ce1eaf9"; "bb9d65313a862562743d26989f5b0fb9"; "2144f740607374c4924f264bd0e534c4" ]);
    ("scale-1", "city-person-country", [ "33788940e0e20ce274d58964bc0aa222"; "30a98cf131731580483bec2cef5ddfde"; "aac13b6e1d355d2ecc484a9dc50125bf" ]);
    ("scale-1", "emp-dept", [ "d72d2d0a019116617eb52751efdd8944"; "6089ae603c8085561b238a1611e97f01"; "d7f7a56a17f0f1533d5dd013ec7eab04" ]);
    ("scale-1", "city-mat-chain", [ "26ce28a1a30e20895d36e82c17ae189d"; "6c4ab51417b1346fb636954c83cfe7d0"; "3c814810bb9e7d3e49430324108940da" ]);
    ("scale-1", "task-unnest", [ "a71c66ff5bc2d1c7a46fd6b9a469d25f"; "bc265317ad77dcc92f406fdc0cfd5ad4"; "52bc7b2d5373cb5ef6dc63d6213063fe" ]) ]

let test_fingerprint_pins () =
  let base = Options.with_batch_size 64 Options.default in
  let variants =
    [ base; { base with Options.pruning = false }; Options.disable "mat-to-join" base ]
  in
  let pin catalog (name, q) =
    ( catalog,
      name,
      List.map
        (fun options ->
          Digest.to_hex
            (Digest.string (Fingerprint.key ~options ~required:Physprop.empty q)))
        variants )
  in
  let scale1 = Db.catalog (Oodb_workloads.Datagen.generate ()) in
  let actual =
    List.map (pin "paper") Q.all
    @ List.map
        (fun (name, text) -> pin "scale-1" (name, Zql.Simplify.compile_exn scale1 text))
        Helpers.golden_texts
  in
  let show (catalog, name, hexes) =
    Printf.sprintf "(%S, %S, [ %s ]);" catalog name
      (String.concat "; " (List.map (Printf.sprintf "%S") hexes))
  in
  if actual <> golden_key_pins then
    Alcotest.failf "fingerprints moved off their pins; actual:\n%s"
      (String.concat "\n" (List.map show actual))

(* [Fingerprint.make] renders the options part once per physical options
   value and reuses it while the same value comes back. [verify] only
   checks the winner, so it does not split keys either. *)
let test_fingerprint_options_equal_copy () =
  let key options = Fingerprint.key ~options ~required:Physprop.empty Q.q1 in
  let d = Options.default in
  let c = d.Options.config in
  let copy = { d with Options.config = { c with Config.page_bytes = c.Config.page_bytes } } in
  Alcotest.(check bool) "the copy is another value" false (copy == d);
  let default_key = key d in
  Alcotest.(check string) "a structurally equal copy gives the same key" default_key (key copy);
  Alcotest.(check string) "and the default again after it" default_key (key d);
  Alcotest.(check string) "verify off gives the default's key" default_key
    (key { d with Options.verify = false })

let test_fingerprint_options_alternate () =
  let key options = Fingerprint.key ~options ~required:Physprop.empty Q.q1 in
  let a = Options.with_batch_size 64 Options.default in
  let b = Options.disable "mat-to-join" a in
  let key_a = key a and key_b = key b in
  Alcotest.(check bool) "the two options give two keys" false (String.equal key_a key_b);
  for i = 1 to 3 do
    Alcotest.(check string) (Printf.sprintf "round %d: a after b" i) key_a (key a);
    Alcotest.(check string) (Printf.sprintf "round %d: b after a" i) key_b (key b)
  done

(* ------------------------------------------------------------------ *)
(* Fuzz: random well-formed expressions over the workload schema       *)

(* The generator itself lives in [Helpers.Fuzz] so the typed-algebra
   property tests can reuse the same query population. *)

let gen_expr = Helpers.Fuzz.gen_expr

let n_fuzz = Helpers.Fuzz.n_fuzz

let test_fuzz_fingerprints () =
  let cat = OC.catalog_with_indexes () in
  let options = Options.default in
  let by_key = Hashtbl.create 64 in
  for seed = 1 to n_fuzz do
    let q = gen_expr ~seed ~root_name:"x" in
    (match Logical.well_formed cat q with
    | Ok () -> ()
    | Error m -> Alcotest.failf "seed %d: generator produced ill-formed query: %s" seed m);
    let f = fp ~options q in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: fingerprint is stable" seed)
      true
      (Fingerprint.equal f (fp ~options q));
    let renamed = gen_expr ~seed ~root_name:"very_different_binding" in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: alpha-renaming invariance" seed)
      true
      (Fingerprint.equal f (fp ~options renamed));
    (* injectivity smoke: equal keys must come from equal canonical forms *)
    let canonical = Fingerprint.canonical q in
    (match Hashtbl.find_opt by_key (f :> string) with
    | Some c when not (Logical.equal c canonical) ->
      Alcotest.failf "seed %d: fingerprint collision" seed
    | _ -> ());
    Hashtbl.replace by_key (f :> string) canonical
  done;
  Alcotest.(check bool) "fuzz generated distinct queries" true (Hashtbl.length by_key > 50)

let test_fuzz_plans_verify () =
  let cat = OC.catalog_with_indexes () in
  for seed = 1 to n_fuzz do
    let q = gen_expr ~seed ~root_name:"x" in
    let outcome = Opt.optimize cat q in
    match outcome.Opt.plan with
    | None -> Alcotest.failf "seed %d: no plan" seed
    | Some plan -> (
      match Oodb_verify.Verify.plan cat plan with
      | Ok () -> ()
      | Error vs ->
        Alcotest.failf "seed %d: optimized plan fails verification:@.%a" seed
          Oodb_verify.Verify.pp_violations vs)
  done

(* ------------------------------------------------------------------ *)
(* Differential: warm cache vs cold optimizer                          *)

let test_warm_equals_cold () =
  List.iter
    (fun (cat_name, mk_cat) ->
      let cat = mk_cat () in
      let pc = Plancache.create () in
      List.iter
        (fun (name, q) ->
          let label = cat_name ^ "/" ^ name in
          let cold = Plancache.optimize pc cat q in
          Alcotest.(check bool) (label ^ ": first call is cold") false cold.Plancache.cached;
          let fresh = Opt.optimize cat q in
          check_same_plan (label ^ ": cold matches the raw optimizer") fresh.Opt.plan
            cold.Plancache.plan;
          let warm = Plancache.optimize pc cat q in
          Alcotest.(check bool) (label ^ ": second call hits") true warm.Plancache.cached;
          check_same_plan (label ^ ": warm plan structurally identical") cold.Plancache.plan
            warm.Plancache.plan)
        Q.all)
    [ ("indexes", OC.catalog_with_indexes); ("no-indexes", OC.catalog) ]

let test_hit_then_epoch_miss () =
  let cat = OC.catalog_with_indexes () in
  let pc = Plancache.create () in
  ignore (Plancache.optimize pc cat Q.q2);
  let s = Plancache.stats pc in
  Alcotest.(check int) "one miss" 1 s.Plancache.misses;
  ignore (Plancache.optimize pc cat Q.q2);
  let s = Plancache.stats pc in
  Alcotest.(check int) "no-op lookup hits" 1 s.Plancache.hits;
  Catalog.bump_epoch cat;
  let o = Plancache.optimize pc cat Q.q2 in
  Alcotest.(check bool) "epoch bump invalidates" false o.Plancache.cached;
  let s = Plancache.stats pc in
  Alcotest.(check int) "second miss" 2 s.Plancache.misses;
  Alcotest.(check int) "the stale plan is replaced" 1 s.Plancache.entries

let test_lru_eviction_reoptimizes () =
  let cat = OC.catalog_with_indexes () in
  let pc = Plancache.create ~capacity:2 () in
  ignore (Plancache.optimize pc cat Q.q1);
  ignore (Plancache.optimize pc cat Q.q2);
  ignore (Plancache.optimize pc cat Q.q3);
  let s = Plancache.stats pc in
  Alcotest.(check int) "capacity bound holds" 2 s.Plancache.entries;
  Alcotest.(check int) "one eviction" 1 s.Plancache.evictions;
  let o = Plancache.optimize pc cat Q.q1 in
  Alcotest.(check bool) "evicted entry re-optimized" false o.Plancache.cached;
  check_same_plan "and identical to the original" (Opt.optimize cat Q.q1).Opt.plan
    o.Plancache.plan

(* Feedback tables that price [e.name == "Fred"] at selectivity [sel]
   and [Task.team_members] at a fanout of [fanout]. *)
let feedback ?(sel = 0.9) ?(fanout = 2.0) () =
  let fb = Config.feedback_create () in
  let env =
    { Oodb_cost.Lprops.card = 1.;
      bindings =
        [ ( "e",
            { Oodb_cost.Lprops.b_class = "Employee";
              b_bytes = 250.;
              b_source = Oodb_cost.Lprops.From_get "Employees" } ) ] }
  in
  let fred = Pred.atom Pred.Eq (Pred.Field ("e", "name")) (Pred.Const (Value.Str "Fred")) in
  Hashtbl.replace fb.Config.fb_sel (Option.get (Oodb_cost.Fbkey.atom ~env fred)) sel;
  Hashtbl.replace fb.Config.fb_fanout
    (Oodb_cost.Fbkey.fanout ~cls:"Task" ~field:"team_members")
    fanout;
  fb

(* A plan cached without feedback is not served under feedback tables,
   nor the reverse: through one cache, each call serves the winner a
   cold optimization picks under its own options. *)
let test_feedback_splits_entries () =
  let cat = OC.catalog_with_indexes () in
  let pc = Plancache.create () in
  let plain = Options.default and fed = Options.with_feedback (feedback ()) Options.default in
  let cold options = (Opt.optimize ~options cat Q.fred).Opt.plan in
  Alcotest.(check bool) "the tables change the winner" false
    (String.equal (plan_repr (cold plain)) (plan_repr (cold fed)));
  List.iter
    (fun (label, options) ->
      check_same_plan label (cold options)
        (Plancache.optimize ~options pc cat Q.fred).Plancache.plan)
    [ ("without feedback", plain); ("with feedback", fed); ("without feedback again", plain) ];
  ignore (Plancache.optimize ~options:fed pc cat Q.fred);
  Alcotest.(check bool) "the same tables hit" true
    (Plancache.optimize ~options:fed pc cat Q.fred).Plancache.cached;
  Alcotest.(check bool) "other tables of equal contents miss" false
    (Plancache.optimize ~options:(Options.with_feedback (feedback ()) Options.default) pc cat
       Q.fred)
      .Plancache.cached

(* Served plans against cold ones while the catalog and the feedback
   change under the cache. A case looks up a few of the paper queries
   and golden texts at each lookup step, so that a write between two
   lookups meets plans cached before it: each must serve what
   [Optimizer.optimize] picks now, and a repeated lookup must hit. *)
type step =
  | Lookup of int  (** feedback tables: none, A, B, or a fresh copy of A *)
  | Set_distinct of int * int  (** statistic, value: 0 re-records the current one *)
  | Set_size of int  (** [Task.team_members]; 0 re-records the current value *)
  | Toggle_index of int  (** drop a standard index, or add it back *)
  | Bump_epoch

let lookup_queries =
  lazy
    (let cat = OC.catalog_with_indexes () in
     Array.of_list
       (Q.all
       @ List.map (fun (name, text) -> (name, Zql.Simplify.compile_exn cat text))
           Helpers.golden_texts))

(* Statistics that move some plan's cost, and ones that move none; the
   last four are absent from the paper catalog until a step sets them. *)
let step_stats =
  [| ("Person", "name"); ("Person", "age"); ("Department", "floor"); ("City", "name");
     ("Job", "name"); ("Plant", "location"); ("Employee", "name"); ("Employee", "age");
     ("Job", "level"); ("City", "population") |]

let distinct_values = [| 1; 3; 50; 1_000; 100_000 |]

let standard_indexes = [ OC.idx_cities_mayor_name; OC.idx_tasks_time; OC.idx_employees_name ]

let set_sizes = [| 1.; 4.5; 9.; 40. |]

let show_step = function
  | Lookup f -> Printf.sprintf "lookup fb%d" f
  | Set_distinct (i, v) ->
    let cls, field = step_stats.(i) in
    Printf.sprintf "distinct %s.%s %s" cls field
      (if v = 0 then "same" else string_of_int distinct_values.(v - 1))
  | Set_size v -> if v = 0 then "set size same" else Printf.sprintf "set size %g" set_sizes.(v - 1)
  | Toggle_index i -> "toggle " ^ (List.nth standard_indexes i).Catalog.ix_name
  | Bump_epoch -> "bump epoch"

let show_case (qs, steps) =
  String.concat ", " (List.map (fun q -> fst (Lazy.force lookup_queries).(q)) qs)
  ^ ": "
  ^ String.concat "; " (List.map show_step steps)

let gen_case =
  let open QCheck2.Gen in
  let n = Array.length (Lazy.force lookup_queries) in
  pair
    (list_size (int_range 1 3) (int_bound (n - 1)))
    (list_size (int_range 5 20)
       (frequency
          [ (6, map (fun f -> Lookup f) (frequency [ (6, pure 0); (1, pure 1); (1, pure 2); (1, pure 3) ]));
            ( 4,
              map2
                (fun i v -> Set_distinct (i, v))
                (int_bound (Array.length step_stats - 1))
                (int_bound (Array.length distinct_values)) );
            (1, map (fun v -> Set_size v) (int_bound (Array.length set_sizes)));
            (1, map (fun i -> Toggle_index i) (int_bound 2));
            (1, pure Bump_epoch) ]))

let run_case (qs, steps) =
  let cat = OC.catalog_with_indexes () in
  let pc = Plancache.create () in
  let queries = Lazy.force lookup_queries in
  let tables_a = feedback () and tables_b = feedback ~sel:0.001 ~fanout:40. () in
  let lookup options qi =
    let name, q = queries.(qi) in
    let served = Plancache.optimize ~options pc cat q in
    let cold = Opt.optimize ~options cat q in
    if plan_repr served.Plancache.plan <> plan_repr cold.Opt.plan then
      QCheck2.Test.fail_reportf "%s served@.%s@.a cold optimization picks@.%s" name
        (plan_repr served.Plancache.plan) (plan_repr cold.Opt.plan);
    if not (Plancache.optimize ~options pc cat q).Plancache.cached then
      QCheck2.Test.fail_reportf "%s: a repeated lookup missed" name
  in
  let step = function
    | Lookup f ->
      let options =
        match f with
        | 0 -> Options.default
        | 1 -> Options.with_feedback tables_a Options.default
        | 2 -> Options.with_feedback tables_b Options.default
        | _ -> Options.with_feedback (feedback ()) Options.default
      in
      List.iter (lookup options) qs
    | Set_distinct (i, v) ->
      let cls, field = step_stats.(i) in
      let n =
        if v > 0 then distinct_values.(v - 1)
        else Option.value ~default:50 (Catalog.distinct cat ~cls ~field)
      in
      Catalog.set_distinct cat ~cls ~field n
    | Set_size v ->
      let cls = "Task" and field = "team_members" in
      Catalog.set_avg_set_size cat ~cls ~field
        (if v > 0 then set_sizes.(v - 1) else Catalog.avg_set_size cat ~cls ~field)
    | Toggle_index i ->
      let ix = List.nth standard_indexes i in
      if List.mem ix (Catalog.indexes cat) then Catalog.drop_index cat ix.Catalog.ix_name
      else Catalog.add_index cat ix
    | Bump_epoch -> Catalog.bump_epoch cat
  in
  List.iter step steps;
  true

let test_served_equals_cold =
  QCheck2.Test.make ~name:"served plans equal cold ones under catalog and feedback writes"
    ~count:60 ~print:show_case gen_case run_case

(* ------------------------------------------------------------------ *)
(* Multi-query optimization                                            *)

let test_optimize_all_rows () =
  let db = Lazy.force Helpers.small_db in
  let cat = Db.catalog db in
  let qs = List.map snd Q.all in
  let batch = Opt.optimize_all cat qs in
  List.iter2
    (fun (name, q) (b : Opt.outcome) ->
      let single = Opt.optimize cat q in
      let rows_of (o : Opt.outcome) =
        match o.Opt.plan with
        | None -> Alcotest.failf "%s: no plan" name
        | Some p -> Helpers.run_rows db p
      in
      Helpers.check_same_rows
        (name ^ ": shared-memo plan returns the same rows")
        (rows_of single) (rows_of b);
      (* memo-level sharing must not change what the search finds *)
      check_same_plan (name ^ ": same winning plan") single.Opt.plan b.Opt.plan)
    Q.all batch

let test_optimize_all_shares_memo () =
  let cat = OC.catalog_with_indexes () in
  let qs = List.map snd Q.all in
  let batch = Opt.optimize_all cat qs in
  let shared = (List.nth batch (List.length batch - 1)).Opt.stats.Engine.groups in
  let individual =
    List.fold_left (fun acc q -> acc + (Opt.optimize cat q).Opt.stats.Engine.groups) 0 qs
  in
  Alcotest.(check bool)
    (Printf.sprintf "shared memo is smaller: %d < %d" shared individual)
    true (shared < individual)

(* ------------------------------------------------------------------ *)
(* Zero rework on warm paths                                           *)

(* Acceptance: re-optimizing the 4-query workload against a session that
   already solved it fires no rules at all — registration finds every
   node interned (empty closure queue) and the physical memo serves each
   (root, required) goal without trying implementations or enforcers. *)
let test_warm_session_zero_rule_firings () =
  let cat = OC.catalog_with_indexes () in
  let options = Options.default in
  let cfg = options.Options.config in
  let spec =
    { Engine.derive_lprop = Oodb_cost.Estimator.derive cfg cat;
      transformations = Open_oodb.Trules.all cfg cat;
      implementations = Open_oodb.Irules.all cfg cat;
      enforcers = Open_oodb.Enforcers.all cfg cat }
  in
  let s = Engine.session ~disabled:options.Options.disabled spec in
  let workload = [ Q.q1; Q.q2; Q.q3; Q.q4 ] in
  (* the batch discipline: register every root, then solve — searches run
     against the fully-grown memo, so nothing is conservatively
     re-searched on the next pass *)
  let solve_all () =
    workload
    |> List.map (fun q -> Engine.register s (Open_oodb.Model.expr_of_logical q))
    |> List.map (fun root -> Engine.solve s root ~required:Physprop.empty)
  in
  let first = solve_all () in
  let counters = Engine.rule_counters (Engine.session_ctx s) in
  let second = solve_all () in
  let counters' = Engine.rule_counters (Engine.session_ctx s) in
  List.iter2
    (fun (name, tried, fired) (name', tried', fired') ->
      Alcotest.(check string) "same rule" name name';
      Alcotest.(check int) (name ^ ": no rule tried on the warm pass") tried tried';
      Alcotest.(check int) (name ^ ": no rule fired on the warm pass") fired fired')
    counters counters';
  Alcotest.(check int) "rule table did not grow" (List.length counters)
    (List.length counters');
  List.iter2
    (fun (a : Engine.result) (b : Engine.result) ->
      check_same_plan "warm session returns identical plans" a.Engine.plan b.Engine.plan)
    first second

(* The regression the cache fixes: Optimizer.optimize re-derives logical
   properties (one derivation per memo group) on every call. Behind the
   fingerprint, a repeated query derives nothing. *)
let test_no_rederivation_on_hit () =
  let cat = OC.catalog_with_indexes () in
  let pc = Plancache.create () in
  let registry = Metrics.create () in
  let derivations () =
    match Metrics.find (Metrics.snapshot registry) "plancache/derivations" with
    | Some (Metrics.Counter n) -> n
    | _ -> 0
  in
  ignore (Plancache.optimize ~registry pc cat Q.q1);
  let cold = derivations () in
  Alcotest.(check bool)
    (Printf.sprintf "cold call derives properties (%d groups)" cold)
    true (cold > 0);
  ignore (Plancache.optimize ~registry pc cat Q.q1);
  Alcotest.(check int) "warm call derives nothing" cold (derivations ());
  (* the uncached entry point keeps paying the full derivation cost on
     every call — the behavior the cache is the fix for. (Derivations
     exceed the final group count: groups merged away were derived too.) *)
  let count = ref 0 in
  let trace = function Engine.Group_created _ -> incr count | _ -> () in
  ignore (Opt.optimize ~trace cat Q.q1);
  let per_call = !count in
  Alcotest.(check int) "cache's cold derivation count matches one raw run" per_call cold;
  ignore (Opt.optimize ~trace cat Q.q1);
  Alcotest.(check int) "the raw optimizer re-derives on every call" (2 * per_call) !count;
  let fresh = Opt.optimize cat Q.q1 in
  Alcotest.(check bool) "derivations cover at least the surviving groups" true
    (cold >= fresh.Opt.stats.Engine.groups)

let test_metrics_wiring () =
  let cat = OC.catalog_with_indexes () in
  let pc = Plancache.create () in
  let registry = Metrics.create () in
  ignore (Plancache.optimize ~registry pc cat Q.q2);
  ignore (Plancache.optimize ~registry pc cat Q.q2);
  ignore (Plancache.optimize ~registry pc cat Q.q2);
  ignore (Plancache.optimize ~registry pc cat Q.q3);
  let snap = Metrics.snapshot registry in
  let counter name =
    match Metrics.find snap name with Some (Metrics.Counter n) -> n | _ -> 0
  in
  Alcotest.(check int) "hits counted" 2 (counter "plancache/hit");
  Alcotest.(check int) "misses counted" 2 (counter "plancache/miss");
  Alcotest.(check int) "insertions counted" 2 (counter "plancache/insert")

let () =
  Alcotest.run "plancache"
    [ ( "lru",
        [ Alcotest.test_case "bounded, promoting, instrumented" `Quick test_lru_basics ] );
      ( "fingerprint",
        [ Alcotest.test_case "alpha-renaming invariance" `Quick
            test_fingerprint_alpha_invariance;
          Alcotest.test_case "conjunct order canonicalized" `Quick
            test_fingerprint_conjunct_order;
          Alcotest.test_case "sensitivity to plan-relevant inputs" `Quick
            test_fingerprint_sensitivity;
          Alcotest.test_case "catalog epoch & statistics" `Quick test_fingerprint_epoch;
          Alcotest.test_case "keys pinned byte for byte" `Quick test_fingerprint_pins;
          Alcotest.test_case "equal options copy, same key" `Quick
            test_fingerprint_options_equal_copy;
          Alcotest.test_case "alternating options keep their keys" `Quick
            test_fingerprint_options_alternate ] );
      ( "fuzz",
        [ Alcotest.test_case "fingerprint properties over random queries" `Quick
            test_fuzz_fingerprints;
          Alcotest.test_case "optimized random plans verify" `Slow test_fuzz_plans_verify ] );
      ( "differential",
        [ Alcotest.test_case "warm cache equals cold optimizer" `Quick test_warm_equals_cold;
          Alcotest.test_case "hit on no-op, miss after epoch bump" `Quick
            test_hit_then_epoch_miss;
          Alcotest.test_case "eviction falls back to re-optimization" `Quick
            test_lru_eviction_reoptimizes;
          Alcotest.test_case "feedback tables split entries" `Quick
            test_feedback_splits_entries;
          QCheck_alcotest.to_alcotest test_served_equals_cold ] );
      ( "mqo",
        [ Alcotest.test_case "optimize_all returns the same rows" `Slow
            test_optimize_all_rows;
          Alcotest.test_case "shared memo is smaller than the sum" `Quick
            test_optimize_all_shares_memo ] );
      ( "zero-rework",
        [ Alcotest.test_case "warm session fires zero rules" `Quick
            test_warm_session_zero_rule_firings;
          Alcotest.test_case "no logical-property re-derivation on hits" `Quick
            test_no_rederivation_on_hit;
          Alcotest.test_case "obs counters wired" `Quick test_metrics_wiring ] ) ]
