(* Differential testing of the vectorized execution engine.

   Batch size is an execution knob, never a semantic one: the same plan
   must produce the same row multiset at every batch size, with size 1
   degrading to the classic tuple-at-a-time engine. This suite checks
   that invariant over the paper workload on two catalogs and over a
   seeded random query population (the same generator walk the plan
   cache's fuzz uses), verifying every optimized plan with the static
   checker before executing it. *)

module Value = Oodb_storage.Value
module Pred = Oodb_algebra.Pred
module Logical = Oodb_algebra.Logical
module Config = Oodb_cost.Config
module Db = Oodb_exec.Db
module Executor = Oodb_exec.Executor
module Opt = Open_oodb.Optimizer
module Verify = Oodb_verify.Verify
module Prng = Oodb_util.Prng
module Q = Oodb_workloads.Queries

let batch_sizes = [ 1; 7; 64; 1024 ]

let config_of batch_size = { Config.default with Config.batch_size }

let run_at db plan batch_size =
  Executor.run ~config:(config_of batch_size) db plan

let check_plan name cat plan =
  match Verify.plan cat plan with
  | Ok () -> ()
  | Error vs ->
    Alcotest.failf "%s: plan fails verification:@.%a" name Verify.pp_violations vs

(* Same rows at every batch size, with batch 1 as the reference. *)
let check_batch_invariance name db plan =
  check_plan name (Db.catalog db) plan;
  let reference = run_at db plan 1 in
  List.iter
    (fun bs ->
      Helpers.check_same_rows
        (Printf.sprintf "%s: batch %d == batch 1" name bs)
        reference (run_at db plan bs))
    (List.filter (fun bs -> bs <> 1) batch_sizes)

let test_workload_batch_invariance_small () =
  let db = Lazy.force Helpers.small_db in
  List.iter
    (fun (name, q) ->
      let plan = Opt.plan_exn (Opt.optimize (Db.catalog db) q) in
      check_batch_invariance name db plan)
    Q.all

let test_workload_batch_invariance_medium () =
  let db = Lazy.force Helpers.medium_db in
  List.iter
    (fun (name, q) ->
      let plan = Opt.plan_exn (Opt.optimize (Db.catalog db) q) in
      check_batch_invariance name db plan)
    Q.all

(* Rule configurations change plan shapes (merge join vs hash join,
   assembly on/off); every shape must be batch-invariant, not just the
   default winner's. *)
let test_rule_configs_batch_invariant () =
  let db = Lazy.force Helpers.small_db in
  let configs =
    [ ("default", Open_oodb.Options.default);
      ("no-assembly", Open_oodb.Options.disable "mat-assembly" Open_oodb.Options.default);
      ("no-hash-join", Open_oodb.Options.disable "hash-join" Open_oodb.Options.default);
      ( "no-pointer-join",
        Open_oodb.Options.disable "pointer-join" Open_oodb.Options.default ) ]
  in
  List.iter
    (fun (cname, options) ->
      List.iter
        (fun (qname, q) ->
          match (Opt.optimize ~options (Db.catalog db) q).Opt.plan with
          | None -> ()
          | Some plan ->
            check_batch_invariance (Printf.sprintf "%s/%s" cname qname) db plan)
        Q.all)
    configs

(* ------------------------------------------------------------------ *)
(* Fuzz: seeded random queries (the shared Helpers.Fuzz population;
   fewer seeds than the fingerprint tests because each one executes at
   four batch sizes) *)

let n_fuzz = 80

let test_fuzz_batch_invariance () =
  let db = Lazy.force Helpers.small_db in
  let cat = Db.catalog db in
  for seed = 1 to n_fuzz do
    let q = Helpers.Fuzz.gen_expr ~seed ~root_name:"x" in
    (match Logical.well_formed cat q with
    | Ok () -> ()
    | Error m -> Alcotest.failf "seed %d: ill-formed query: %s" seed m);
    match (Opt.optimize cat q).Opt.plan with
    | None -> Alcotest.failf "seed %d: no plan" seed
    | Some plan -> check_batch_invariance (Printf.sprintf "seed %d" seed) db plan
  done

(* The shim must also interleave coherently with batch pulls: consuming
   a prefix tuple-wise and the rest batch-wise loses and duplicates
   nothing. *)
let test_mixed_tuple_and_batch_consumption () =
  let db = Lazy.force Helpers.small_db in
  let plan = Opt.plan_exn (Opt.optimize (Db.catalog db) Q.q1) in
  let whole =
    Oodb_exec.Iterator.to_list (Executor.iterator ~config:(config_of 64) db plan)
  in
  let it = Executor.iterator ~config:(config_of 64) db plan in
  Oodb_exec.Iterator.open_ it;
  let prefix = ref [] in
  for _ = 1 to 5 do
    match Oodb_exec.Iterator.next it with
    | Some env -> prefix := env :: !prefix
    | None -> ()
  done;
  let rec drain acc =
    match Oodb_exec.Iterator.next_batch it with
    | Some b -> drain (acc @ Oodb_exec.Batch.to_list b)
    | None -> acc
  in
  let mixed = List.rev !prefix @ drain [] in
  Oodb_exec.Iterator.close it;
  Alcotest.(check int) "same row count" (List.length whole) (List.length mixed);
  Helpers.check_same_rows "mixed consumption = batch consumption"
    (Executor.rows_of db plan whole) (Executor.rows_of db plan mixed)

(* A plan without a root projection yields each binding paired with its
   object's OID. The row function hands a repeated pair out again, so
   its rows must still equal, under plain [=] and in order, the pairs
   built afresh from each tuple, at batch sizes 64 and 1. *)
let test_unprojected_rows () =
  let db = Lazy.force Helpers.medium_db in
  let fresh_row (env : Oodb_exec.Env.t) =
    List.mapi
      (fun i b -> (b, Value.Ref (Oodb_exec.Env.slot_oid env.Oodb_exec.Env.slots.(i))))
      (Oodb_exec.Env.bindings env)
  in
  let unprojected =
    List.filter_map
      (fun (name, q) ->
        let plan = Opt.plan_exn (Opt.optimize (Db.catalog db) q) in
        match plan.Open_oodb.Model.Engine.alg with
        | Open_oodb.Physical.Alg_project _ -> None
        | _ -> Some (name, plan))
      Q.all
  in
  Alcotest.(check bool) "fig3 has no root projection" true (List.mem_assoc "fig3" unprojected);
  List.iter
    (fun (name, plan) ->
      List.iter
        (fun bs ->
          let config = config_of bs in
          let expected =
            List.map fresh_row
              (Oodb_exec.Iterator.to_list (Executor.iterator ~config db plan))
          in
          let rows = Executor.run ~config db plan in
          Alcotest.(check bool)
            (Printf.sprintf "%s at batch %d: %d rows equal" name bs (List.length rows))
            true (rows = expected))
        [ 64; 1 ])
    unprojected

let () =
  Alcotest.run "vectorized"
    [ ( "workload",
        [ Alcotest.test_case "small catalog, batch sizes {1,7,64,1024}" `Quick
            test_workload_batch_invariance_small;
          Alcotest.test_case "medium catalog, batch sizes {1,7,64,1024}" `Quick
            test_workload_batch_invariance_medium;
          Alcotest.test_case "alternate rule configurations" `Quick
            test_rule_configs_batch_invariant;
          Alcotest.test_case "unprojected rows equal fresh pairs" `Quick test_unprojected_rows ] );
      ( "fuzz",
        [ Alcotest.test_case "seeded random plans batch-invariant" `Quick
            test_fuzz_batch_invariance ] );
      ( "protocol",
        [ Alcotest.test_case "mixed tuple/batch consumption" `Quick
            test_mixed_tuple_and_batch_consumption ] ) ]
