(* End-to-end optimizer tests: the plan shapes and cost relations of the
   paper's four example queries (Figures 6-13, Tables 2-3). *)

module Value = Oodb_storage.Value
module Logical = Oodb_algebra.Logical
module Pred = Oodb_algebra.Pred
module Cost = Oodb_cost.Cost
module Catalog = Oodb_catalog.Catalog
module OC = Oodb_catalog.Open_oodb_catalog
module Q = Oodb_workloads.Queries
module Opt = Open_oodb.Optimizer
module Options = Open_oodb.Options
module Physical = Open_oodb.Physical
module Physprop = Open_oodb.Physprop
module Engine = Open_oodb.Model.Engine

let cat () = OC.catalog_with_indexes ()

let plan ?options ?required q = Opt.plan_exn (Opt.optimize ?options ?required (cat ()) q)

let total p = Cost.total p.Engine.cost

(* ------------------------------------------------------------------ *)
(* Query 1 (Figures 5-7, Table 2)                                       *)

let test_q1_fig6_shape () =
  (* Fig 6: project over two hash joins; departments filtered and their
     plants assembled on the small side; employees and jobs scanned *)
  Helpers.check_shape "figure 6"
    [ "project"; "hash-join"; "hash-join"; "filter"; "assembly"; "file-scan"; "file-scan";
      "file-scan" ]
    (plan Q.q1)

let test_q1_fig6_details () =
  let p = plan Q.q1 in
  let algs = Helpers.algs p in
  (* the assembly resolves d.plant on the department side, not per employee *)
  Alcotest.(check bool) "assembles e.dept.plant" true
    (List.exists
       (function
         | Physical.Assembly { paths = [ { Physical.ap_out = "e.dept.plant"; _ } ]; _ } -> true
         | _ -> false)
       algs);
  (* jobs and departments are file-scanned via their extents *)
  let scanned =
    List.filter_map (function Physical.File_scan { coll; _ } -> Some coll | _ -> None) algs
  in
  Alcotest.(check bool) "scans Departments/Employees/Jobs" true
    (List.sort compare scanned = [ "Departments"; "Employees"; "Jobs" ])

let test_q1_naive_is_fig7 () =
  (* disabling mat-to-join leaves only pointer chasing: Fig 7's plan *)
  let options = Options.disable "mat-to-join" Options.default in
  let p = plan ~options Q.q1 in
  Alcotest.(check bool) "no joins" true
    (List.for_all (function Physical.Hash_join _ -> false | _ -> true) (Helpers.algs p));
  Alcotest.(check bool) "at least 3x worse than optimal" true (total p > 3.0 *. total (plan Q.q1))

let test_q1_table2_ordering () =
  let all = total (plan Q.q1) in
  let naive = total (plan ~options:(Options.disable "mat-to-join" Options.default) Q.q1) in
  let no_window =
    total
      (plan
         ~options:(Options.with_assembly_window 1 (Options.disable "mat-to-join" Options.default))
         Q.q1)
  in
  let no_commute = total (plan ~options:(Options.without_join_commutativity Options.default) Q.q1) in
  Alcotest.(check bool) "all rules best" true (all < no_commute);
  Alcotest.(check bool) "naive worse than uncommuted" true (no_commute < naive);
  Alcotest.(check bool) "window 1 worst" true (naive < no_window)

(* ------------------------------------------------------------------ *)
(* Query 2 (Figures 8-9)                                                *)

let test_q2_collapses_to_index_scan () =
  let p = plan Q.q2 in
  Helpers.check_shape "figure 8" [ "index-scan" ] p;
  match p.Engine.alg with
  | Physical.Index_scan { index = "cities_mayor_name"; key = Value.Str "Joe"; residual = []; _ } ->
    ()
  | _ -> Alcotest.fail "expected collapse onto the mayor-name path index"

let test_q2_no_collapse_is_fig9 () =
  let options = Options.disable "collapse-index-scan" Options.default in
  let p = plan ~options Q.q2 in
  Helpers.check_shape "figure 9" [ "filter"; "assembly"; "file-scan" ] p;
  (* "a substantial increase in execution time (about four orders of
     magnitude)" *)
  Alcotest.(check bool) "orders of magnitude" true (total p > 100.0 *. total (plan Q.q2))

let test_q2_no_index_same_as_no_collapse () =
  let cat_no_ix = OC.catalog () in
  Catalog.add_index cat_no_ix OC.idx_tasks_time;
  let p = Opt.plan_exn (Opt.optimize cat_no_ix Q.q2) in
  Helpers.check_shape "no path index" [ "filter"; "assembly"; "file-scan" ] p

(* ------------------------------------------------------------------ *)
(* Query 3 (Figures 10-11): physical properties and goal-directed search *)

let test_q3_enforcer_plan () =
  let p = plan Q.q3 in
  Helpers.check_shape "figure 10" [ "project"; "assembly"; "index-scan" ] p;
  (* the assembly enforces presence in memory of the mayor *)
  match (List.nth (Helpers.algs p) 1 : Physical.t) with
  | Physical.Assembly { paths = [ { Physical.ap_out = "c.mayor"; _ } ]; _ } -> ()
  | _ -> Alcotest.fail "expected the mayor assembly enforcer"

let test_q3_cost_close_to_q2 () =
  (* Q3 only adds assembling ~2 mayors: "three orders of magnitude" better
     than the filter-based plan *)
  let q3 = total (plan Q.q3) in
  let filter_based =
    total (plan ~options:(Options.disable "collapse-index-scan" Options.default) Q.q3)
  in
  Alcotest.(check bool) "cheap" true (q3 < 1.0);
  Alcotest.(check bool) "orders of magnitude" true (filter_based > 100.0 *. q3)

let test_q3_required_props_respected () =
  (* demanding the city in memory at the root must still be satisfied *)
  let required = Physprop.in_memory [ "c" ] in
  let p = plan ~required Q.q3 in
  Alcotest.(check bool) "plan exists" true (total p > 0.0)

(* ------------------------------------------------------------------ *)
(* Query 4 (Figures 12-13, Table 3)                                     *)

let test_q4_fig12_shape () =
  let p = plan Q.q4 in
  Helpers.check_shape "figure 12" [ "filter"; "assembly"; "unnest"; "index-scan" ] p;
  match p.Engine.alg with
  | Physical.Filter [ a ] ->
    Alcotest.(check bool) "name filter on top" true (Pred.bindings [ a ] = [ "e" ])
  | _ -> Alcotest.fail "expected the Fred filter on top"

let test_q4_uses_only_time_index () =
  let p = plan Q.q4 in
  let indexes =
    List.filter_map
      (function Physical.Index_scan { index; _ } -> Some index | _ -> None)
      (Helpers.algs p)
  in
  Alcotest.(check (list string)) "only the time index" [ "tasks_time" ] indexes

let test_q4_table3_orderings () =
  let cost_with ixs =
    let c = OC.catalog () in
    List.iter (Catalog.add_index c) ixs;
    total (Opt.plan_exn (Opt.optimize c Q.q4))
  in
  let none = cost_with [] in
  let time_only = cost_with [ OC.idx_tasks_time ] in
  let name_only = cost_with [ OC.idx_employees_name ] in
  let both = cost_with [ OC.idx_tasks_time; OC.idx_employees_name ] in
  Alcotest.(check (float 1e-6)) "both == time only" time_only both;
  Alcotest.(check bool) "time best" true (time_only < name_only);
  Alcotest.(check bool) "name beats none" true (name_only < none)

(* ------------------------------------------------------------------ *)
(* General behaviour                                                    *)

let test_optimization_time () =
  (* the paper targets < 1s on a 1993 workstation; we are far below *)
  let o = Opt.optimize (cat ()) Q.q1 in
  Alcotest.(check bool) "sub-second" true (o.Opt.opt_seconds < 1.0)

let test_ill_formed_rejected () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Opt.optimize (cat ()) (Logical.get ~coll:"Nope" ~binding:"x"));
       false
     with Invalid_argument _ -> true)

let test_pruning_equivalence () =
  List.iter
    (fun (name, q) ->
      let on = Opt.cost (Opt.optimize ~options:{ Options.default with Options.pruning = true } (cat ()) q) in
      let off = Opt.cost (Opt.optimize ~options:{ Options.default with Options.pruning = false } (cat ()) q) in
      Alcotest.(check (float 1e-6)) (name ^ ": pruning preserves optimum") (Cost.total off)
        (Cost.total on))
    Q.all

let test_guided_equivalence () =
  (* the guided (promise-ordered, cost-bounded) search must find winners
     with exactly the exhaustive winner's cost, on every workload query,
     against both the bare and the indexed catalog, with and without a
     wide join chain in the mix *)
  let queries = Q.all @ [ ("chain6", Q.join_chain 6) ] in
  List.iter
    (fun (cname, mk_cat) ->
      List.iter
        (fun (name, q) ->
          let exhaustive = Opt.cost (Opt.optimize (mk_cat ()) q) in
          let guided =
            Opt.cost
              (Opt.optimize ~options:(Options.with_guided Options.default) (mk_cat ()) q)
          in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s on %s catalog: guided == exhaustive winner cost" name cname)
            (Cost.total exhaustive) (Cost.total guided))
        queries)
    [ ("bare", OC.catalog); ("indexed", OC.catalog_with_indexes) ]

let test_rule_subsets_never_improve () =
  List.iter
    (fun rule ->
      let base = Cost.total (Opt.cost (Opt.optimize (cat ()) Q.q1)) in
      let restricted =
        Cost.total (Opt.cost (Opt.optimize ~options:(Options.disable rule Options.default) (cat ()) Q.q1))
      in
      Alcotest.(check bool)
        (Printf.sprintf "disabling %s cannot improve the plan" rule)
        true
        (restricted >= base -. 1e-9))
    [ "join-commute"; "mat-to-join"; "join-assoc"; "select-push-join"; "mat-push-join";
      "collapse-index-scan"; "pointer-join" ]

let test_explain_output () =
  let o = Opt.optimize (cat ()) Q.q2 in
  let s = Opt.explain o in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions index scan" true (contains s "Index Scan Cities");
  Alcotest.(check bool) "mentions cost" true (contains s "anticipated cost")

let test_heuristic_guidance () =
  (* seeding the search with the greedy plan's cost prunes but must not
     change the optimum *)
  let c = cat () in
  let unseeded = Opt.optimize c Q.q4 in
  (match Oodb_baselines.Greedy.optimize c Q.q4 with
  | Error m -> Alcotest.fail m
  | Ok g ->
    let seeded =
      Opt.optimize ~initial_limit:(Cost.add g.Engine.cost (Cost.cpu 1e-6)) c Q.q4
    in
    Alcotest.(check (float 1e-6)) "same optimum" (Cost.total (Opt.cost unseeded))
      (Cost.total (Opt.cost seeded));
    Alcotest.(check bool) "no extra work" true
      (seeded.Opt.stats.Engine.candidates <= unseeded.Opt.stats.Engine.candidates));
  (* an unachievably low limit yields no plan *)
  let starved = Opt.optimize ~initial_limit:(Oodb_cost.Cost.cpu 1e-9) c Q.q4 in
  Alcotest.(check bool) "limit respected" true (starved.Opt.plan = None)

let test_set_operators_optimize_and_run () =
  let db = Lazy.force Helpers.small_db in
  let dcat = Oodb_exec.Db.catalog db in
  let pop cmp v b =
    Logical.select [ Pred.atom cmp (Pred.Field (b, "population")) (Pred.Const (Value.Int v)) ]
      (Logical.get ~coll:"Cities" ~binding:b)
  in
  let lo () = pop Pred.Le 60_000 "c" and hi () = pop Pred.Ge 30_000 "c" in
  let run q = Helpers.run_rows db (Opt.plan_exn (Opt.optimize dcat q)) in
  let n_lo = List.length (run (lo ())) and n_hi = List.length (run (hi ())) in
  let n_union = List.length (run (Logical.union (lo ()) (hi ()))) in
  let n_inter = List.length (run (Logical.intersect (lo ()) (hi ()))) in
  let n_diff = List.length (run (Logical.difference (lo ()) (hi ()))) in
  Alcotest.(check int) "inclusion-exclusion" (n_lo + n_hi) (n_union + n_inter);
  Alcotest.(check int) "difference" (n_lo - n_inter) n_diff;
  Alcotest.(check bool) "overlapping ranges" true (n_inter > 0)

let test_cross_product () =
  let db = Lazy.force Helpers.small_db in
  let dcat = Oodb_exec.Db.catalog db in
  let q =
    Logical.cross
      (Logical.get ~coll:"Countries" ~binding:"n")
      (Logical.get ~coll:"Capitals" ~binding:"k")
  in
  let rows = Helpers.run_rows db (Opt.plan_exn (Opt.optimize dcat q)) in
  let card coll = Oodb_storage.Store.cardinality (Oodb_exec.Db.store db) ~coll in
  Alcotest.(check int) "product cardinality" (card "Countries" * card "Capitals")
    (List.length rows)

let deep_query =
  (* four materialize links and three predicates: a larger closure than
     any paper query exercises *)
  Logical.get ~coll:"Cities" ~binding:"c"
  |> Logical.mat ~src:"c" ~field:"mayor"
  |> Logical.mat ~src:"c" ~field:"country"
  |> Logical.mat ~src:"c.country" ~field:"president"
  |> Logical.mat ~src:"c.country" ~field:"capital"
  |> Logical.select
       [ Pred.atom Pred.Ge (Pred.Field ("c.mayor", "age")) (Pred.Const (Value.Int 30));
         Pred.atom Pred.Le (Pred.Field ("c.country.president", "age")) (Pred.Const (Value.Int 70));
         Pred.atom Pred.Ge (Pred.Field ("c.country.capital", "population")) (Pred.Const (Value.Int 20_000)) ]
  |> Logical.project [ { Logical.p_expr = Pred.Field ("c", "name"); p_name = "city" } ]

let test_deep_path_stress () =
  let o = Opt.optimize (cat ()) deep_query in
  (* the paper's goal: moderately complex queries in under a second *)
  Alcotest.(check bool) "sub-second optimization" true (o.Opt.opt_seconds < 1.0);
  Alcotest.(check bool) "substantial closure" true (o.Opt.stats.Engine.mexprs > 100);
  let db = Lazy.force Helpers.small_db in
  let dcat = Oodb_exec.Db.catalog db in
  let full = Opt.plan_exn (Opt.optimize dcat deep_query) in
  let naive = Opt.plan_exn (Oodb_baselines.Naive.optimize dcat deep_query) in
  Helpers.check_same_rows "deep chain equivalence" (Helpers.run_rows db naive)
    (Helpers.run_rows db full)

let test_unknown_rule_rejected () =
  Alcotest.check_raises "unknown rule" (Invalid_argument "Options.disable: unknown rule frobnicate")
    (fun () -> ignore (Options.disable "frobnicate" Options.default))

(* ------------------------------------------------------------------ *)
(* Golden optimizer pins                                                *)

(* Memo size, plan and the exact bits of the winner's cost for the paper
   queries (on the paper catalog) and one text per benchmark template (on
   the scale-1 database's catalog, as the benchmark compiles them). A change to how the search is run
   (rule scheduling, caching, closure bookkeeping) must leave every pin
   bit-identical; a change to what it finds must re-record them. *)

let golden_texts =
  [ ("mayor-name", {|SELECT c.name FROM c IN Cities WHERE c.mayor.name == "Joe"|});
    ( "employee-name",
      {|SELECT e.name, e.age FROM e IN Employees WHERE e.name == "Fred" && e.age == 30|} );
    ("task-time", {|SELECT t.name FROM t IN Tasks WHERE t.time == 100|});
    ( "paper-q4",
      {|SELECT t FROM t IN Tasks WHERE t.time == 100 && EXISTS (SELECT m FROM m IN t.team_members WHERE m.name == "Fred")|}
    );
    ( "q1-location",
      {|SELECT e.name, e.job.name, e.dept.name FROM e IN Employees WHERE e.dept.plant.location == "Dallas"|}
    );
    ( "fig1-floor-join",
      {|SELECT e.name, d.name FROM e IN Employees, d IN Departments WHERE e.dept == d && d.floor == 3|}
    );
    ( "salary-by-floor",
      {|SELECT e.name, e.salary FROM e IN Employees WHERE e.dept.floor == 3|} );
    ( "team-age-unnest",
      {|SELECT t.name, m.name FROM t IN Tasks, m IN t.team_members WHERE m.age > 40|} );
    ( "emp-dept-job",
      {|SELECT e.name, d.name, j.name FROM e IN Employees, d IN Departments, j IN Jobs WHERE e.dept == d && e.job == j && d.floor == 3 && j.level == 2|}
    );
    ( "city-person-country",
      {|SELECT c.name, p.name, n.name FROM c IN Cities, p IN Persons, n IN Countries WHERE c.mayor == p && c.country == n && p.age > 60 && c.population < 500000|}
    );
    ( "emp-dept",
      {|SELECT e.name, d.name FROM e IN Employees, d IN Departments WHERE e.dept == d && d.floor == 3 && e.salary > 50000.0|}
    );
    ( "city-mat-chain",
      {|SELECT c.name, c.mayor.name FROM c IN Cities WHERE c.mayor.age == 40 && c.country.capital.population > 800000 && c.population < 500000|}
    );
    ( "task-unnest",
      {|SELECT t.name, m.name FROM t IN Tasks, m IN t.team_members WHERE t.time < 500 && m.age == 40 && m.dept.floor == 3|}
    ) ]

type opt_pin = {
  catalog : string;
  query : string;
  groups : int;
  mexprs : int;
  plan_md5 : string;  (** digest of the rendered plan text *)
  io : float;
  cpu : float;
}

let opt_pin_to_string p =
  Printf.sprintf
    "{ catalog = %S; query = %S; groups = %d; mexprs = %d; plan_md5 = %S; io = %h; cpu = %h };"
    p.catalog p.query p.groups p.mexprs p.plan_md5 p.io p.cpu

let golden_opt_pins =
  [ { catalog = "paper"; query = "q1"; groups = 16; mexprs = 49; plan_md5 = "8d46e35ecf8a95d21dd509dc9f0a6ccc"; io = 0x1.39fae147ae148p+6; cpu = 0x1.a64e147ae147bp+5 };
    { catalog = "paper"; query = "q2"; groups = 5; mexprs = 9; plan_md5 = "8a2f35acfcae204deb6bf11d5d857428"; io = 0x1.eb851eb851eb8p-4; cpu = 0x1.3dd97f62b6ae8p-11 };
    { catalog = "paper"; query = "q3"; groups = 6; mexprs = 10; plan_md5 = "0ff6288f2ee7a7b8780b7cbb83d44b56"; io = 0x1.1c28f5c28f5c2p-3; cpu = 0x1.dcc63f141205cp-10 };
    { catalog = "paper"; query = "q4"; groups = 10; mexprs = 23; plan_md5 = "83fa75c0334368b23d9f2f62bf0e0d88"; io = 0x1.3428f5c28f5c2p+0; cpu = 0x1.8ced916872b02p-4 };
    { catalog = "paper"; query = "fig2"; groups = 19; mexprs = 93; plan_md5 = "17407338e6716b86a4d8d6efe2ea2a5f"; io = 0x1.a5147ae147ae1p+6; cpu = 0x1.683205bc01a37p+3 };
    { catalog = "paper"; query = "fig3"; groups = 4; mexprs = 6; plan_md5 = "96bbd0da183c05702f31776ed69523d2"; io = 0x1.11851eb851eb8p+6; cpu = 0x1.2d9p+7 };
    { catalog = "scale-1"; query = "mayor-name"; groups = 6; mexprs = 10; plan_md5 = "56be2fa73466754edaff99696e03bce6"; io = 0x1.eb851eb851eb8p-4; cpu = 0x1.3dd97f62b6ae8p-10 };
    { catalog = "scale-1"; query = "employee-name"; groups = 5; mexprs = 8; plan_md5 = "936488b948d246f01076efd93a569338"; io = 0x1.e28f5c28f5c29p+3; cpu = 0x1.bbd70a3d70a3ep-3 };
    { catalog = "scale-1"; query = "task-time"; groups = 3; mexprs = 3; plan_md5 = "99b16d1ce092470a05b3110054e26719"; io = 0x1.70a3d70a3d70ap-2; cpu = 0x1.8d4fdf3b645a2p-8 };
    { catalog = "scale-1"; query = "paper-q4"; groups = 11; mexprs = 24; plan_md5 = "2cba76195369e036f81d694b5cd9727b"; io = 0x1.3428f5c28f5c2p+0; cpu = 0x1.8e0ba1f4b1ee2p-4 };
    { catalog = "scale-1"; query = "q1-location"; groups = 12; mexprs = 27; plan_md5 = "8d46e35ecf8a95d21dd509dc9f0a6ccc"; io = 0x1.39fae147ae148p+6; cpu = 0x1.a64e147ae147bp+5 };
    { catalog = "scale-1"; query = "fig1-floor-join"; groups = 8; mexprs = 19; plan_md5 = "9c68ab861659bd5d9d18c492ef24f3c7"; io = 0x1.f8p+5; cpu = 0x1.5fa147ae147aep+5 };
    { catalog = "scale-1"; query = "salary-by-floor"; groups = 6; mexprs = 10; plan_md5 = "e03ae3634fed6493b843634caff2992a"; io = 0x1.f8p+5; cpu = 0x1.5fa147ae147aep+5 };
    { catalog = "scale-1"; query = "team-age-unnest"; groups = 7; mexprs = 11; plan_md5 = "a144bdcb799a6e6c26511b95d8bc96ba"; io = 0x1.012e147ae147bp+8; cpu = 0x1.1b1fae147ae14p+7 };
    { catalog = "scale-1"; query = "emp-dept-job"; groups = 34; mexprs = 306; plan_md5 = "aeac014260004aabdce566bb6fa86308"; io = 0x1.147ae147ae147p+6; cpu = 0x1.88947ae147aep+5 };
    { catalog = "scale-1"; query = "city-person-country"; groups = 36; mexprs = 335; plan_md5 = "b4f4d71159417023133dcf9c5215dd6e"; io = 0x1.47a8f5c28f5c3p+5; cpu = 0x1.57c12d77318fdp+3 };
    { catalog = "scale-1"; query = "emp-dept"; groups = 13; mexprs = 53; plan_md5 = "bcefed421e9e30c21592d9d6d04110a5"; io = 0x1.f8p+5; cpu = 0x1.67a199999999ap+5 };
    { catalog = "scale-1"; query = "city-mat-chain"; groups = 54; mexprs = 402; plan_md5 = "eeedc56ed96fff374b32afa6f8eaa48d"; io = 0x1.48ca3d70a3d7p+4; cpu = 0x1.445fda122fad7p+3 };
    { catalog = "scale-1"; query = "task-unnest"; groups = 29; mexprs = 138; plan_md5 = "eb881912dbc83dc2a6ed25ecda112ca2"; io = 0x1.195c28f5c28f6p+6; cpu = 0x1.1c8104816f007p+6 } ]

let same_opt_pin a b =
  a.groups = b.groups && a.mexprs = b.mexprs && String.equal a.plan_md5 b.plan_md5
  && Int64.equal (Int64.bits_of_float a.io) (Int64.bits_of_float b.io)
  && Int64.equal (Int64.bits_of_float a.cpu) (Int64.bits_of_float b.cpu)

let test_golden_optimizer_pins () =
  let pin catalog c (query, q) =
    let o = Opt.optimize c q in
    let p = Opt.plan_exn o in
    { catalog;
      query;
      groups = o.Opt.stats.Engine.groups;
      mexprs = o.Opt.stats.Engine.mexprs;
      plan_md5 = Digest.to_hex (Digest.string (Format.asprintf "%a" Engine.pp_plan p));
      io = p.Engine.cost.Cost.io;
      cpu = p.Engine.cost.Cost.cpu }
  in
  let scale1 = Oodb_exec.Db.catalog (Oodb_workloads.Datagen.generate ()) in
  let actual =
    List.map (pin "paper" (cat ())) Q.all
    @ List.map
        (fun (name, text) -> pin "scale-1" scale1 (name, Zql.Simplify.compile_exn scale1 text))
        golden_texts
  in
  let mismatches =
    List.filter
      (fun a ->
        match
          List.find_opt (fun g -> g.catalog = a.catalog && g.query = a.query) golden_opt_pins
        with
        | Some g -> not (same_opt_pin g a)
        | None -> true)
      actual
  in
  if mismatches <> [] then
    Alcotest.failf "optimizer output moved off its golden pins; actual:\n%s"
      (String.concat "\n" (List.map opt_pin_to_string mismatches));
  Alcotest.(check int) "every pin exercised" (List.length golden_opt_pins) (List.length actual)

let () =
  Alcotest.run "optimizer"
    [ ( "query1",
        [ Alcotest.test_case "figure 6 plan shape" `Quick test_q1_fig6_shape;
          Alcotest.test_case "figure 6 details" `Quick test_q1_fig6_details;
          Alcotest.test_case "figure 7 naive plan" `Quick test_q1_naive_is_fig7;
          Alcotest.test_case "table 2 cost ordering" `Quick test_q1_table2_ordering ] );
      ( "query2",
        [ Alcotest.test_case "collapse to index scan" `Quick test_q2_collapses_to_index_scan;
          Alcotest.test_case "figure 9 without the rule" `Quick test_q2_no_collapse_is_fig9;
          Alcotest.test_case "no index, same plan" `Quick test_q2_no_index_same_as_no_collapse ]
      );
      ( "query3",
        [ Alcotest.test_case "figure 10 enforcer plan" `Quick test_q3_enforcer_plan;
          Alcotest.test_case "three orders of magnitude" `Quick test_q3_cost_close_to_q2;
          Alcotest.test_case "explicit required properties" `Quick test_q3_required_props_respected
        ] );
      ( "query4",
        [ Alcotest.test_case "figure 12 plan shape" `Quick test_q4_fig12_shape;
          Alcotest.test_case "uses only the time index" `Quick test_q4_uses_only_time_index;
          Alcotest.test_case "table 3 orderings" `Quick test_q4_table3_orderings ] );
      ( "general",
        [ Alcotest.test_case "optimization time" `Quick test_optimization_time;
          Alcotest.test_case "ill-formed rejected" `Quick test_ill_formed_rejected;
          Alcotest.test_case "pruning preserves optimum" `Quick test_pruning_equivalence;
          Alcotest.test_case "guided preserves optimum" `Quick test_guided_equivalence;
          Alcotest.test_case "rule subsets never improve" `Quick test_rule_subsets_never_improve;
          Alcotest.test_case "explain output" `Quick test_explain_output;
          Alcotest.test_case "heuristic guidance seeding" `Quick test_heuristic_guidance;
          Alcotest.test_case "set operators end-to-end" `Quick test_set_operators_optimize_and_run;
          Alcotest.test_case "cross product" `Quick test_cross_product;
          Alcotest.test_case "deep path stress" `Quick test_deep_path_stress;
          Alcotest.test_case "unknown rule rejected" `Quick test_unknown_rule_rejected ] );
      ( "golden",
        [ Alcotest.test_case "memo size, plan and cost bits" `Quick test_golden_optimizer_pins ] ) ]
