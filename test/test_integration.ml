(* Full-pipeline integration tests on a medium-scale generated database:
   ZQL text -> simplification -> optimization -> execution, checking the
   result contents against independently computed ground truth. *)

module Value = Oodb_storage.Value
module Store = Oodb_storage.Store
module Db = Oodb_exec.Db
module Executor = Oodb_exec.Executor
module Opt = Open_oodb.Optimizer
module Options = Open_oodb.Options
module Q = Oodb_workloads.Queries

let db = Lazy.force Helpers.medium_db

let cat = Db.catalog db

let store = Db.store db

let run_logical ?options q =
  Helpers.run_rows db (Opt.plan_exn (Opt.optimize ?options cat q))

let run_zql ?options text =
  match Zql.Simplify.compile cat text with
  | Error m -> Alcotest.failf "ZQL error: %s" m
  | Ok q -> run_logical ?options q

(* Ground truth computed by brute force over the store (field reads are free). *)
let dallas_employees () =
  Store.oids store ~coll:"Employees"
  |> List.filter (fun e ->
         let dept = Option.get (Value.as_ref (Store.field store e "dept")) in
         let plant = Option.get (Value.as_ref (Store.field store dept "plant")) in
         Value.equal (Value.Str "Dallas") (Store.field store plant "location"))

let joe_cities () =
  Store.oids store ~coll:"Cities"
  |> List.filter (fun c ->
         let m = Option.get (Value.as_ref (Store.field store c "mayor")) in
         Value.equal (Value.Str "Joe") (Store.field store m "name"))

let fred_task_pairs time =
  Store.oids store ~coll:"Tasks"
  |> List.concat_map (fun t ->
         if not (Value.equal (Value.Int time) (Store.field store t "time")) then []
         else
           Value.set_elements (Store.field store t "team_members")
           |> List.filter_map Value.as_ref
           |> List.filter (fun m ->
                  Value.equal (Value.Str "Fred") (Store.field store m "name"))
           |> List.map (fun m -> (t, m)))

(* ------------------------------------------------------------------ *)

let test_q1_ground_truth () =
  let rows = run_logical Q.q1 in
  Alcotest.(check int) "dallas employees" (List.length (dallas_employees ())) (List.length rows)

let test_q2_ground_truth () =
  let rows = run_logical Q.q2 in
  let truth = joe_cities () in
  Alcotest.(check int) "joe cities" (List.length truth) (List.length rows);
  let cities =
    rows
    |> List.filter_map (fun row ->
           match List.assoc_opt "c" row with Some (Value.Ref o) -> Some o | _ -> None)
    |> List.sort compare
  in
  Alcotest.(check (list int)) "same cities" (List.sort compare truth) cities

let test_q3_projects_ages () =
  let rows = run_logical Q.q3 in
  List.iter
    (fun row ->
      match List.assoc "c.mayor.age" row with
      | Value.Int a -> Alcotest.(check bool) "age plausible" true (a >= 20 && a < 100)
      | _ -> Alcotest.fail "expected an integer age")
    rows

let test_q4_ground_truth () =
  (* at scale 0.05, distinct times shrink: use a time that exists *)
  let t0 = List.hd (Store.oids store ~coll:"Tasks") in
  let time = match Store.field store t0 "time" with Value.Int t -> t | _ -> 1 in
  let q =
    Oodb_algebra.Logical.(
      get ~coll:"Tasks" ~binding:"t"
      |> unnest ~out:"m" ~src:"t" ~field:"team_members"
      |> mat_ref ~out:"e" ~src:"m"
      |> select
           [ Oodb_algebra.Pred.atom Oodb_algebra.Pred.Eq
               (Oodb_algebra.Pred.Field ("e", "name"))
               (Oodb_algebra.Pred.Const (Value.Str "Fred"));
             Oodb_algebra.Pred.atom Oodb_algebra.Pred.Eq
               (Oodb_algebra.Pred.Field ("t", "time"))
               (Oodb_algebra.Pred.Const (Value.Int time)) ])
  in
  let rows = run_logical q in
  Alcotest.(check int) "witness pairs" (List.length (fred_task_pairs time)) (List.length rows)

let test_all_configurations_agree () =
  (* every rule-disabling configuration must compute identical results *)
  let configurations =
    [ ("all rules", Options.default);
      ("no commutativity", Options.without_join_commutativity Options.default);
      ("no collapse", Options.disable "collapse-index-scan" Options.default);
      ("no mat-to-join", Options.disable "mat-to-join" Options.default);
      ("window 1", Options.with_assembly_window 1 Options.default);
      ("naive", Oodb_baselines.Naive.options ()) ]
  in
  List.iter
    (fun (qname, q) ->
      let reference = Helpers.canon_rows (run_logical q) in
      List.iter
        (fun (cname, options) ->
          let rows = Helpers.canon_rows (run_logical ~options q) in
          if rows <> reference then
            Alcotest.failf "%s under %s differs from the reference plan" qname cname)
        configurations)
    Q.all

let test_zql_full_pipeline () =
  let rows =
    run_zql
      {| SELECT Newobject(e.name, e.dept.name, e.job.name)
         FROM Employee e IN Employees
         WHERE e.dept.plant.location == "Dallas" |}
  in
  Alcotest.(check int) "zql == hand-built" (List.length (run_logical Q.q1)) (List.length rows);
  List.iter (fun row -> Alcotest.(check int) "3 columns" 3 (List.length row)) rows

let test_zql_fig1 () =
  let rows =
    run_zql
      {| SELECT Newobject(e.name, d.name)
         FROM Employee e IN Employees, Department d IN Departments
         WHERE d.floor == 3 && e.age >= 32 && e.last_raise >= date(1991,1,1)
            && e.dept == d |}
  in
  (* brute force the same conditions *)
  let expected =
    Store.oids store ~coll:"Employees"
    |> List.filter (fun e ->
           let dept = Option.get (Value.as_ref (Store.field store e "dept")) in
           Value.compare (Store.field store e "age") (Value.Int 32) >= 0
           && Value.compare (Store.field store e "last_raise")
                (Value.Date (Value.date_of_ymd 1991 1 1))
              >= 0
           && Value.equal (Value.Int 3) (Store.field store dept "floor"))
    |> List.length
  in
  Alcotest.(check int) "figure 1 result size" expected (List.length rows)

let test_estimates_vs_execution () =
  (* the estimated result cardinality should be within an order of
     magnitude of the actual result for the calibrated queries *)
  List.iter
    (fun (name, q) ->
      let lp = Oodb_cost.Estimator.derive_expr Oodb_cost.Config.default cat q in
      let actual = float_of_int (List.length (run_logical q)) in
      let est = lp.Oodb_cost.Lprops.card in
      if actual > 0.0 then
        Alcotest.(check bool)
          (Printf.sprintf "%s estimate within 20x (est %.1f, actual %.0f)" name est actual)
          true
          (est /. actual < 20.0 && actual /. est < 20.0))
    [ ("q1", Q.q1); ("fig3", Q.fig3) ]

let test_exec_io_close_to_anticipated () =
  (* executed disk time vs the optimizer's anticipated I/O for Q1 *)
  let plan = Opt.plan_exn (Opt.optimize cat Q.q1) in
  let _, report = Executor.run_measured db plan in
  let est_io = (Opt.optimize cat Q.q1 |> Opt.cost).Oodb_cost.Cost.io in
  Alcotest.(check bool)
    (Printf.sprintf "within 4x (est %.1f, simulated %.1f)" est_io report.Executor.simulated_seconds)
    true
    (report.Executor.simulated_seconds < 4.0 *. est_io
    && est_io < 4.0 *. Float.max 0.01 report.Executor.simulated_seconds)

let () =
  Alcotest.run "integration"
    [ ( "ground-truth",
        [ Alcotest.test_case "query 1" `Quick test_q1_ground_truth;
          Alcotest.test_case "query 2" `Quick test_q2_ground_truth;
          Alcotest.test_case "query 3" `Quick test_q3_projects_ages;
          Alcotest.test_case "query 4" `Quick test_q4_ground_truth ] );
      ( "equivalence",
        [ Alcotest.test_case "all rule configurations agree" `Slow test_all_configurations_agree ] );
      ( "zql",
        [ Alcotest.test_case "full pipeline" `Quick test_zql_full_pipeline;
          Alcotest.test_case "paper figure 1" `Quick test_zql_fig1 ] );
      ( "calibration",
        [ Alcotest.test_case "cardinality estimates" `Quick test_estimates_vs_execution;
          Alcotest.test_case "anticipated vs simulated IO" `Quick test_exec_io_close_to_anticipated
        ] ) ]
