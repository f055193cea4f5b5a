(* Shared fixtures and assertions for the test suite. *)

module Value = Oodb_storage.Value
module Engine = Open_oodb.Model.Engine
module Physical = Open_oodb.Physical
module Executor = Oodb_exec.Executor

(* Values at the numeric hashing boundaries, each as an Int and as a
   Float: integers near 1e15 and near 2^53 (past which not every int is
   exactly a float), max_int, min_int, their negations, plus signed
   zeros and NaNs. *)
let numeric_boundary_values =
  let two53 = 1 lsl 53 in
  let ints =
    [ 0; 1_000_000_000_000_000 - 2; 1_000_000_000_000_000 + 2; two53 - 1; two53; two53 + 1;
      max_int; min_int ]
  in
  let ints = ints @ List.map (fun i -> -i) ints in
  List.concat_map (fun i -> [ Value.Int i; Value.Float (float_of_int i) ]) ints
  @ [ Value.Float 0.; Value.Float (-0.); Value.Float nan; Value.Float (-.nan);
      Value.Float (Float.succ (float_of_int two53)); Value.Float 1e15; Value.Float 0.5 ]

(* A small generated database shared by tests that only read it. *)
let small_db = lazy (Oodb_workloads.Datagen.generate ~scale:0.01 ~buffer_pages:256 ())

(* A medium database for integration tests. *)
let medium_db = lazy (Oodb_workloads.Datagen.generate ~scale:0.05 ~buffer_pages:512 ())

(* The scale-1 database the benchmark runs on. *)
let scale1_db = lazy (Oodb_workloads.Datagen.generate ())

(* One text per benchmark template: the golden optimizer, executor and
   plan-cache key pins each compile these on the scale-1 database's
   catalog, as the benchmark does. *)
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

let canon_rows rows =
  let canon_row row = List.sort (fun (a, _) (b, _) -> String.compare a b) row in
  rows |> List.map canon_row
  |> List.sort (fun r1 r2 ->
         List.compare
           (fun (k1, v1) (k2, v2) ->
             let c = String.compare k1 k2 in
             if c <> 0 then c else Value.compare v1 v2)
           r1 r2)

let rows_to_string rows =
  rows
  |> List.map (fun row ->
         row
         |> List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (Value.to_string v))
         |> String.concat ", ")
  |> String.concat "\n"

let check_same_rows msg expected actual =
  let e = canon_rows expected and a = canon_rows actual in
  if e <> a then
    Alcotest.failf "%s: result sets differ\n--- expected (%d rows)\n%s\n--- actual (%d rows)\n%s"
      msg (List.length e) (rows_to_string e) (List.length a) (rows_to_string a)

(* Flatten a physical plan to its algorithm list, root first. *)
let rec algs (plan : Engine.plan) =
  plan.Engine.alg :: List.concat_map algs plan.Engine.children

let alg_label = function
  | Physical.File_scan _ -> "file-scan"
  | Physical.Index_scan _ -> "index-scan"
  | Physical.Filter _ -> "filter"
  | Physical.Hash_join _ -> "hash-join"
  | Physical.Merge_join _ -> "merge-join"
  | Physical.Pointer_join _ -> "pointer-join"
  | Physical.Assembly _ -> "assembly"
  | Physical.Alg_project _ -> "project"
  | Physical.Alg_unnest _ -> "unnest"
  | Physical.Hash_union -> "union"
  | Physical.Hash_intersect -> "intersect"
  | Physical.Hash_difference -> "difference"
  | Physical.Sort _ -> "sort"

let shape plan = List.map alg_label (algs plan)

let check_shape msg expected plan =
  Alcotest.(check (list string)) msg expected (shape plan)

let run_rows db plan = Executor.run db plan

let total_cost (plan : Engine.plan) = Oodb_cost.Cost.total plan.Engine.cost

(* ------------------------------------------------------------------ *)
(* Fuzz: random well-formed expressions over the workload schema.
   The generator itself lives in the scenario library; re-exported here
   so the plan-cache fingerprint tests, the typed-algebra property tests
   and the vectorized-executor differential tests keep drawing from one
   query population. *)
module Fuzz = Oodb_scenario.Corpus
