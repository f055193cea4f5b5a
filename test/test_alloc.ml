(* Allocation pins: minor words on the storage and executor paths,
   which are exact within one process, so noise cannot move them. Each
   budget is the value measured when it was set plus the margin stated
   beside it; a change that claims a saving in words lowers the budget
   it moves. The measured values are printed to the test's log. *)

module Disk = Oodb_storage.Disk
module Buffer_pool = Oodb_storage.Buffer_pool
module Executor = Oodb_exec.Executor
module Db = Oodb_exec.Db
module Opt = Open_oodb.Optimizer
module Options = Open_oodb.Options

(* Minor words [f] allocates, less what the measurement itself does. *)
let words f =
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  f ();
  let w2 = Gc.minor_words () in
  (w2 -. w1) -. (w1 -. w0)

(* A hit, and a miss that evicts, allocate nothing: exactly zero. *)
let test_buffer_read () =
  let disk = Disk.create () in
  let seg = Disk.alloc_segment disk ~name:"s" in
  Disk.extend disk seg 8;
  let pool = Buffer_pool.create disk ~capacity_pages:2 in
  Buffer_pool.read pool seg 0;
  Buffer_pool.read pool seg 1;
  let hit = words (fun () -> Buffer_pool.read pool seg 1) in
  let miss = words (fun () -> Buffer_pool.read pool seg 2) in
  Alcotest.(check int) "evicted" 1 (Buffer_pool.stats pool).Buffer_pool.evictions;
  Alcotest.(check (float 0.)) "hit" 0. hit;
  Alcotest.(check (float 0.)) "evicting miss" 0. miss

(* Minor words per output row of one execution of each golden text on
   the scale-1 database, at batch sizes 64 and 1: (text, budget at 64,
   budget at 1). Each budget is the measured value plus 10%, rounded
   up. Building a tuple for every object an index scan fetches, before
   its residual is tested, read 244.5 words a row for [employee-name] at
   batch size 64. *)
let budgets =
  [ ("mayor-name", 282., 326.);
    ("employee-name", 96., 547.);
    ("task-time", 57., 122.);
    ("paper-q4", 2005., 2569.);
    ("q1-location", 180., 700.);
    ("fig1-floor-join", 112., 551.);
    ("salary-by-floor", 140., 588.);
    ("team-age-unnest", 68., 265.);
    ("emp-dept-job", 139., 663.);
    ("city-person-country", 253., 542.);
    ("emp-dept", 179., 931.);
    ("city-mat-chain", 12223., 34120.);
    ("task-unnest", 5272., 26864.) ]

let test_executor_words_per_row () =
  let db = Lazy.force Helpers.scale1_db in
  let cat = Db.catalog db in
  let over =
    List.concat_map
      (fun (name, text) ->
        let q = Zql.Simplify.compile_exn cat text in
        let _, b64, b1 = List.find (fun (n, _, _) -> String.equal n name) budgets in
        List.filter_map
          (fun (batch, budget) ->
            let options = Options.with_batch_size batch Options.default in
            let config = { Oodb_cost.Config.default with Oodb_cost.Config.batch_size = batch } in
            let plan = Opt.plan_exn (Opt.optimize ~options cat q) in
            ignore (Executor.run ~verify:false ~config db plan);
            let rows = ref 0 in
            let w =
              words (fun () -> rows := List.length (Executor.run ~verify:false ~config db plan))
            in
            let per_row = w /. float_of_int (max 1 !rows) in
            Printf.printf "%s batch %d: %.1f words/row (%d rows)\n%!" name batch per_row !rows;
            if per_row > budget then
              Some (Printf.sprintf "%s at batch %d: %.1f words/row > %.0f" name batch per_row budget)
            else None)
          [ (64, b64); (1, b1) ])
      Helpers.golden_texts
  in
  if over <> [] then Alcotest.failf "over budget:\n%s" (String.concat "\n" over)

let () =
  Alcotest.run "alloc"
    [ ( "pins",
        [ Alcotest.test_case "buffer-pool read allocates nothing" `Quick test_buffer_read;
          Alcotest.test_case "executor words per row" `Quick test_executor_words_per_row ] ) ]
