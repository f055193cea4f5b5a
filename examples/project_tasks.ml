(* The project-task workload (paper Query 4): set-valued paths, index
   choice, and why greedy "use every index" optimization loses to
   cost-based search — the experiment behind Table 3 and Figure 13.

   Run with: dune exec examples/project_tasks.exe *)

module Db = Oodb_exec.Db
module Catalog = Oodb_catalog.Catalog
module Executor = Oodb_exec.Executor
module Opt = Open_oodb.Optimizer
module Engine = Open_oodb.Model.Engine
module Cost = Oodb_cost.Cost
module Greedy = Oodb_baselines.Greedy

let db = Oodb_workloads.Datagen.generate ~scale:0.5 ()

let catalog = Db.catalog db

let () =
  (* time values shrink with the scale; pick one that exists *)
  let store = Db.store db in
  let a_time =
    match
      Oodb_storage.Store.field store
        (List.hd (Oodb_storage.Store.oids store ~coll:"Tasks"))
        "time"
    with
    | Oodb_storage.Value.Int t -> t
    | _ -> 1
  in
  let text =
    Printf.sprintf
      {| SELECT * FROM Task t IN Tasks
         WHERE t.time == %d &&
               EXISTS (SELECT m FROM m IN t.team_members WHERE m.name == "Fred") |}
      a_time
  in
  Format.printf "ZQL (existential subquery over a set-valued path):@.%s@.@." text;
  let q =
    match Zql.Simplify.compile catalog text with Ok q -> q | Error m -> failwith m
  in
  Format.printf "simplified (paper Fig. 3 shape):@.%a@." Oodb_algebra.Logical.pp q;

  (* cost-based: uses only the time index, resolves members by assembly *)
  let outcome = Opt.optimize catalog q in
  let plan = Opt.plan_exn outcome in
  let rows, report = Executor.run_measured db plan in
  Format.printf "@.== cost-based plan (paper Fig. 12) ==@.%a@.estimated %a | %a@."
    Engine.pp_plan plan Cost.pp (Opt.cost outcome) Executor.pp_report report;

  (* greedy: grabs both indexes, hash-joins them (paper Fig. 13) *)
  (match Greedy.optimize catalog q with
  | Error m -> Format.printf "greedy failed: %s@." m
  | Ok gplan ->
    let grows, greport = Executor.run_measured db gplan in
    Format.printf "@.== greedy plan (paper Fig. 13) ==@.%a@.estimated %a | %a@." Engine.pp_plan
      gplan Cost.pp gplan.Engine.cost Executor.pp_report greport;
    Format.printf "@.same answers? %b  |  greedy/cost-based estimate: %.1fx@."
      (List.length rows = List.length grows)
      (Cost.total gplan.Engine.cost /. Cost.total (Opt.cost outcome)));

  (* index configuration sweep: the Table 3 experiment at this scale *)
  Format.printf "@.== index sweep (cost-based estimates) ==@.";
  let sweep =
    [ ("none", [] ); ("time", [ "tasks_time" ]); ("name", [ "employees_name" ]);
      ("both", [ "tasks_time"; "employees_name" ]) ]
  in
  List.iter
    (fun (label, keep) ->
      (* temporarily drop the other indexes from the catalog metadata *)
      let dropped =
        List.filter (fun ix -> not (List.mem ix.Catalog.ix_name keep)) (Catalog.indexes catalog)
      in
      List.iter (fun ix -> Catalog.drop_index catalog ix.Catalog.ix_name) dropped;
      let c = Cost.total (Opt.cost (Opt.optimize catalog q)) in
      List.iter (Catalog.add_index catalog) dropped;
      Format.printf "  %-6s %10.2fs@." label c)
    sweep
