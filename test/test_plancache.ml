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

let test_lru_basics () =
  let l = Lru.create ~capacity:2 in
  Alcotest.(check (option string)) "evict on 1st add" None (Lru.add l "a" "1");
  Alcotest.(check (option string)) "evict on 2nd add" None (Lru.add l "b" "2");
  Alcotest.(check (option string)) "miss" None (Lru.find l "z");
  Alcotest.(check (option string)) "hit" (Some "1") (Lru.find l "a");
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
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Lru.create: capacity must be >= 1") (fun () ->
      ignore (Lru.create ~capacity:0))

(* ------------------------------------------------------------------ *)
(* Fingerprints: hand-written invariants                               *)

let fp ?(options = Options.default) ?(required = Physprop.empty) cat q =
  Fingerprint.make ~catalog:cat ~options ~required q

let test_fingerprint_alpha_invariance () =
  let cat = OC.catalog_with_indexes () in
  let q2_renamed =
    Logical.get ~coll:"Cities" ~binding:"city"
    |> Logical.mat ~src:"city" ~field:"mayor"
    |> Logical.select [ Pred.atom Pred.Eq (Pred.Field ("city.mayor", "name"))
                          (Pred.Const (Value.Str "Joe")) ]
  in
  Alcotest.(check bool) "q2 alpha-renamed shares the fingerprint" true
    (Fingerprint.equal (fp cat Q.q2) (fp cat q2_renamed));
  Alcotest.(check bool) "canonical forms coincide" true
    (Logical.equal (Fingerprint.canonical Q.q2) (Fingerprint.canonical q2_renamed))

let test_fingerprint_conjunct_order () =
  let cat = OC.catalog_with_indexes () in
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
    (Fingerprint.equal (fp cat Q.q4) (fp cat swapped))

let test_fingerprint_sensitivity () =
  let cat = OC.catalog_with_indexes () in
  let distinct msg a b =
    Alcotest.(check bool) msg false (Fingerprint.equal a b)
  in
  distinct "different queries differ" (fp cat Q.q1) (fp cat Q.q2);
  distinct "disabling a rule splits entries" (fp cat Q.q1)
    (fp ~options:(Options.disable "mat-to-join" Options.default) cat Q.q1);
  distinct "required order splits entries" (fp cat Q.q3)
    (fp
       ~required:
         { Physprop.empty with
           Physprop.order = Some { Physprop.ord_binding = "c"; ord_field = Some "name" } }
       cat Q.q3);
  (* explicit projection aliases name result columns: not alpha-noise *)
  let alias name =
    Q.q2 |> Logical.project [ { Logical.p_expr = Pred.Field ("c", "name"); p_name = name } ]
  in
  distinct "projection aliases are preserved" (fp cat (alias "a")) (fp cat (alias "b"));
  let cat2 = OC.catalog () in
  distinct "catalog content splits entries" (fp cat Q.q2) (fp cat2 Q.q2)

let test_fingerprint_epoch () =
  let cat = OC.catalog_with_indexes () in
  let before = fp cat Q.q1 in
  Alcotest.(check bool) "stable across no-op" true
    (Fingerprint.equal before (fp cat Q.q1));
  Catalog.bump_epoch cat;
  Alcotest.(check bool) "epoch bump changes the fingerprint" false
    (Fingerprint.equal before (fp cat Q.q1));
  let cat' = OC.catalog_with_indexes () in
  Catalog.set_distinct cat' ~cls:"Person" ~field:"name" 17;
  Alcotest.(check bool) "statistics refresh changes the fingerprint" false
    (Fingerprint.equal before (fp cat' Q.q1))

(* ------------------------------------------------------------------ *)
(* Fingerprints: pinned keys                                           *)

(* The key decides which queries share a plan, so it must stay
   byte-identical across changes to how it is computed; each pin is the
   MD5 of the key string. Each query is pinned under three option values
   (default, pruning off, mat-to-join disabled), at an explicit batch
   size because [Options.default] reads [OODB_BATCH_SIZE]. The benchmark
   template texts are compiled on the scale-1 database's catalog. *)
let golden_key_pins =
  [ ("paper", "q1", [ "de2800351e4a8b8e701d9613eda346d9"; "8e8e8f7ef2eb87fda63f3f2268c1a815"; "47e4a8601d9824b204dfd3bf38689727" ]);
    ("paper", "q2", [ "dd4c68549610a4e3ad24dd615dc208de"; "ccec12f6118067b72b93a99cf894f9ef"; "b0946fcdc6649189ff039ed2aaec683b" ]);
    ("paper", "q3", [ "b80d1d6e7a4c981590e57f6ae3018544"; "ae8673e9d03250dc4bba7ba425a26a35"; "c89b9a394b8d74583229fa6604ecc6bf" ]);
    ("paper", "q4", [ "f9723f3b51282d05ab027ae1c3654f4d"; "aa01cc0a267968da0eefce837cc313d4"; "b57b8506bd7734d9530066a824b9866b" ]);
    ("paper", "fig2", [ "e900151b7eba7e90f28ac257a1c86966"; "27accb286f495a89064e394e1005471f"; "f5c89b4379cd74c257ff8b57d9c578cf" ]);
    ("paper", "fig3", [ "bc3f133f37709308d7d9ca2002b7c6a6"; "ca21b1a6f8c2b34273e4605a73169bb3"; "881fc8fe8610fa2daaddf7809df1e352" ]);
    ("scale-1", "mayor-name", [ "993011ace02005af823f3183dd031dc3"; "29411db423c4c22e362328d7feaf734c"; "54e31a69ff179ce4c0060dbdc437e047" ]);
    ("scale-1", "employee-name", [ "c73274c81eebe951976267332aed3091"; "2342d43ab740c7879f3ed74abc5d65e0"; "1db1a3d507d054da8f9d0f13cd28d1b3" ]);
    ("scale-1", "task-time", [ "71bcdce53d4b938f05706d2e8f95a74d"; "b8844dc543c756cc6e790fce10366b47"; "0fc8ba521ac7456662cd5780109ee954" ]);
    ("scale-1", "paper-q4", [ "af112a480a843b974ff8fe92fab93f3c"; "12f11d1306f534168138a92ff9e464ca"; "733f905a4a0c5b015387c2ff707a2c35" ]);
    ("scale-1", "q1-location", [ "d5af990d6201a66ee1b812023abe5cd2"; "9a5aa68ae7ba717c7c3a64dce3091d77"; "ba1c3320d46d94ea438aff1a60ecb8d9" ]);
    ("scale-1", "fig1-floor-join", [ "9f11e20a9c889cd6ea2b967af6183a0e"; "3cb7422d25c3af2c297e677de41451ec"; "1903951194ab42f470d236cbcbddf713" ]);
    ("scale-1", "salary-by-floor", [ "9eccd2e221499029fc146ce0c32eec13"; "68efa0ecf09055cf800f3edb983b3d69"; "d1b3743255d6a501f6b0f765dfb00e1c" ]);
    ("scale-1", "team-age-unnest", [ "38fed8b7508b4a09a36d7eb44d7d7413"; "f7001531ada89bef70de2c2dd1deea27"; "100d6b65206f6017df8572d7904f44cb" ]);
    ("scale-1", "emp-dept-job", [ "7a60c1e33b6950933d9365f7e8e23cb5"; "02a043dbc59c40b9b50d0d007c7b087e"; "48df6f6a0b733c97364fd19d14bb3d91" ]);
    ("scale-1", "city-person-country", [ "9ad41ffe249df5a284511cbee23e2cf3"; "f005a4aeb00d7435ce2469081f0d68a1"; "65feaa38a9724ff440650c31a4e483a2" ]);
    ("scale-1", "emp-dept", [ "ba3f35ceef7004254adfe57ac0b84186"; "589ce4360442b9269438c5eeff9574d7"; "93ccb41bb96e99dd74af3a64d6c2004b" ]);
    ("scale-1", "city-mat-chain", [ "3101b32e8ab4d50605337180ddc3ffd1"; "60a97816384062af99723000b0fb3bd4"; "43d6818539d45366f5263f74c7512ed3" ]);
    ("scale-1", "task-unnest", [ "5f212d9e25e2f589b6a61583e7234cdf"; "7d5468b39762c7a26c325c25a8f7aeb9"; "22bff44f1b9603b90332e7bb0760a449" ]) ]

let test_fingerprint_pins () =
  let base = Options.with_batch_size 64 Options.default in
  let variants =
    [ base; { base with Options.pruning = false }; Options.disable "mat-to-join" base ]
  in
  let pin catalog cat (name, q) =
    ( catalog,
      name,
      List.map
        (fun options ->
          Digest.to_hex
            (Digest.string (Fingerprint.key ~catalog:cat ~options ~required:Physprop.empty q)))
        variants )
  in
  let scale1 = Db.catalog (Oodb_workloads.Datagen.generate ()) in
  let actual =
    List.map (pin "paper" (OC.catalog_with_indexes ())) Q.all
    @ List.map
        (fun (name, text) -> pin "scale-1" scale1 (name, Zql.Simplify.compile_exn scale1 text))
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
  let cat = OC.catalog_with_indexes () in
  let key options = Fingerprint.key ~catalog:cat ~options ~required:Physprop.empty Q.q1 in
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
  let cat = OC.catalog_with_indexes () in
  let key options = Fingerprint.key ~catalog:cat ~options ~required:Physprop.empty Q.q1 in
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
    let f = fp ~options cat q in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: fingerprint is stable" seed)
      true
      (Fingerprint.equal f (fp ~options cat q));
    let renamed = gen_expr ~seed ~root_name:"very_different_binding" in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: alpha-renaming invariance" seed)
      true
      (Fingerprint.equal f (fp ~options cat renamed));
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
  Alcotest.(check int) "both plans stored" 2 s.Plancache.entries

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
            test_lru_eviction_reoptimizes ] );
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
