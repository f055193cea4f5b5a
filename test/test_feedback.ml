(* The cardinality-feedback loop, end to end:
   - the q-error formula's zero-row behavior (the old epsilon floor
     turned empty results into 1e9-ish artifacts);
   - store round-trips and catalog-scope isolation, concurrent saves,
     and what a store loads from a damaged or hand-edited file;
   - the pinned plan flip: on the skewed-statistics catalog the cold
     optimizer full-scans, one harvested execution corrects the
     statistics, and the re-optimization picks the index scan — cheaper
     by actually-measured I/O, not just by estimate;
   - feedback is an estimator-only effect: for every workload query, on
     both catalogs, at batch sizes 1 and 64, the feedback-on plan
     returns exactly the same row multiset as the feedback-off plan. *)

module Value = Oodb_storage.Value
module Catalog = Oodb_catalog.Catalog
module Config = Oodb_cost.Config
module Logical = Oodb_algebra.Logical
module Opt = Open_oodb.Optimizer
module Options = Open_oodb.Options
module Physical = Open_oodb.Physical
module Db = Oodb_exec.Db
module Executor = Oodb_exec.Executor
module Q = Oodb_workloads.Queries
module Datagen = Oodb_workloads.Datagen
module Profile = Oodb_obs.Profile
module Feedback = Oodb_obs.Feedback
module Prng = Oodb_util.Prng

let skewed_db = lazy (Datagen.generate_skewed ~scale:0.05 ~buffer_pages:512 ())

let small_skewed_db = lazy (Datagen.generate_skewed ~scale:0.01 ~buffer_pages:256 ())

(* ------------------------------------------------------------------ *)
(* q-error formula                                                      *)

let test_qerror_zero_rows () =
  let check msg expected ~est ~actual =
    Alcotest.(check (float 1e-9)) msg expected (Profile.q_error ~est ~actual)
  in
  check "0/0 is perfect" 1.0 ~est:0. ~actual:0.;
  check "overestimate of an empty result" 5.0 ~est:5. ~actual:0.;
  check "missed rows entirely" 3.0 ~est:0. ~actual:3.;
  check "both sub-row" 1.0 ~est:0.2 ~actual:0.;
  check "exact" 1.0 ~est:42. ~actual:42.;
  check "symmetric over" 2.0 ~est:100. ~actual:50.;
  check "symmetric under" 2.0 ~est:50. ~actual:100.;
  (* monotone in the error, finite everywhere *)
  Alcotest.(check bool) "finite on zero actual" true
    (Float.is_finite (Profile.q_error ~est:1e6 ~actual:0.))

(* ------------------------------------------------------------------ *)
(* Store round-trip and scoping                                         *)

(* [f] on a fresh [oodb-fb*] directory, which is removed with the files
   in it when [f] returns or raises. *)
let with_temp_dir f =
  let dir = Filename.temp_file "oodb-fb" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let remove () =
    Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
    Sys.rmdir dir
  in
  Fun.protect ~finally:remove (fun () -> f dir)

let test_store_roundtrip () =
  let cat = Datagen.generate_catalog_only ~scale:0.01 () in
  with_temp_dir @@ fun dir ->
  let s = Feedback.create ~dir cat in
  Feedback.observe_sel s "k1" ~value:0.01 ~qerror:50.0;
  Feedback.observe_card s "Employees" ~value:500.0 ~qerror:1.0;
  Feedback.observe_fanout s "\"Task\".\"team_members\"" ~value:2.5 ~qerror:1.2;
  Feedback.save s;
  let s2 = Feedback.create ~dir cat in
  Alcotest.(check int) "all three observations reloaded" 3 (Feedback.size s2);
  let hook = Feedback.hook s2 in
  Alcotest.(check (float 1e-9)) "sel value survives"
    0.01
    (Option.get (Hashtbl.find_opt hook.Config.fb_sel "k1"));
  (* EMA merge: a second observation moves halfway toward the new value. *)
  Feedback.observe_sel s2 "k1" ~value:0.03 ~qerror:2.0;
  let hook2 = Feedback.hook s2 in
  Alcotest.(check (float 1e-9)) "EMA alpha 1/2"
    0.02
    (Option.get (Hashtbl.find_opt hook2.Config.fb_sel "k1"));
  (* A different catalog epoch is a different scope: nothing leaks. *)
  Catalog.bump_epoch cat;
  let s3 = Feedback.create ~dir cat in
  Alcotest.(check int) "bumped epoch loads empty" 0 (Feedback.size s3);
  ignore (Feedback.clear_dir dir : int);
  let s4 = Feedback.create ~dir cat in
  Alcotest.(check int) "clear_dir wipes the store" 0 (Feedback.size s4)

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_plans what cat options =
  List.iter
    (fun (name, q) ->
      match (Opt.optimize ~options cat q).Opt.plan with
      | Some _ -> ()
      | None -> Alcotest.failf "%s: no plan for %s" what name)
    [ ("q1", Q.q1); ("q4", Q.q4) ]

(* Two processes may save one store at once. Each writes a temp file of
   its own, so another writer's [<file>.tmp] survives a save byte for
   byte, and the saved store reloads as it was. *)
let test_store_concurrent_save () =
  let cat = Datagen.generate_catalog_only ~scale:0.01 () in
  with_temp_dir @@ fun dir ->
  let s = Feedback.create ~dir cat in
  Feedback.observe_sel s "k1" ~value:0.01 ~qerror:50.0;
  Feedback.observe_card s "Employees" ~value:500.0 ~qerror:1.0;
  let other = Option.get (Feedback.file s) ^ ".tmp" and theirs = "another writer's store" in
  write_file other theirs;
  Feedback.save s;
  Alcotest.(check string) "the other writer's temp file is untouched" theirs (read_file other);
  Alcotest.(check bool) "the saved store reloads to the same contents" true
    (Feedback.contents (Feedback.create ~dir cat) = Feedback.contents s)

(* A store read back from a file is bounded as one observed in process
   is: a non-finite value is dropped (an infinite [Employees]
   cardinality or [team_members] fanout left q1 and q4 with no plan),
   and the others go through the [observe_*] clamps. *)
(* A store file body: [fields], after the scope [cat] gives unless
   [scope] names another. *)
let body ?scope cat fields =
  let epoch, digest =
    match scope with
    | Some s -> s
    | None -> (Catalog.epoch cat, Digest.to_hex (Catalog.digest cat))
  in
  Printf.sprintf {|{"epoch": %d, "digest": %S, %s}|} epoch digest fields

(* The store [create] loads from a file in [cat]'s scope holding
   [text]. *)
let load_text cat text =
  with_temp_dir @@ fun dir ->
  write_file (Option.get (Feedback.file (Feedback.create ~dir cat))) text;
  Feedback.create ~dir cat

let obs v = Printf.sprintf {|{"value": %s, "count": 1, "qerror": 1}|} v

let test_store_bounds_loaded_values () =
  let cat = Datagen.generate_catalog_only ~scale:0.01 () in
  let load fields = load_text cat (body cat fields) in
  List.iter
    (fun (what, fields) ->
      let s = load fields in
      check_plans what cat (Feedback.install s Options.default);
      Alcotest.(check int) (what ^ ": dropped") 0 (Feedback.size s))
    [ ("infinite Employees card", Printf.sprintf {|"card": {"Employees": %s}|} (obs "1e999"));
      ( "infinite team_members fanout",
        Printf.sprintf {|"fanout": {"\"Task\".\"team_members\"": %s}|} (obs "1e999") ) ];
  let s =
    load
      (Printf.sprintf {|"sel": {"k": %s}, "card": {"Employees": %s}, "fanout": {"f": %s}|}
         (obs "5.0") (obs "-3") (obs "-1e999"))
  in
  let hook = Feedback.hook s in
  Alcotest.(check (option (float 0.))) "sel clamped to 1" (Some 1.0)
    (Hashtbl.find_opt hook.Config.fb_sel "k");
  Alcotest.(check (option (float 0.))) "card clamped to 0" (Some 0.0)
    (Hashtbl.find_opt hook.Config.fb_card "Employees");
  Alcotest.(check (option (float 0.))) "negative infinity dropped" None
    (Hashtbl.find_opt hook.Config.fb_fanout "f")

(* The file name is no proof of scope: a file named for this store's
   scope whose body names another, or none, loads nothing. *)
let test_store_refuses_other_scope () =
  let cat = Datagen.generate_catalog_only ~scale:0.01 () in
  let epoch = Catalog.epoch cat and digest = Digest.to_hex (Catalog.digest cat) in
  let fields = Printf.sprintf {|"card": {"Employees": %s}|} (obs "500") in
  Alcotest.(check int) "its own scope loads" 1 (Feedback.size (load_text cat (body cat fields)));
  List.iter
    (fun (what, text) -> Alcotest.(check int) what 0 (Feedback.size (load_text cat text)))
    [ ("another epoch", body ~scope:(epoch + 1, digest) cat fields);
      ("another digest", body ~scope:(epoch, Digest.to_hex (Digest.string "other")) cat fields);
      ("no scope", "{" ^ fields ^ "}");
      ("no digest", Printf.sprintf {|{"epoch": %d, %s}|} epoch fields);
      ("no epoch", Printf.sprintf {|{"digest": %S, %s}|} digest fields) ]

(* Seeded damage to a saved store: even trials truncate it, odd trials
   overwrite one to three bytes, half of them digits and half of the new
   bytes drawn from the characters of a JSON number, so that values and
   not just the syntax get damaged. Loading never raises, every loaded
   value is finite and inside its clamp, and q1 and q4 still get a plan
   with the store installed. *)
let test_store_corruption () =
  let db = Lazy.force Helpers.small_db in
  let cat = Db.catalog db in
  with_temp_dir @@ fun dir ->
  let s = Feedback.create ~dir cat in
  List.iter
    (fun q ->
      let _, _, prof = Profile.run db (Opt.plan_exn (Opt.optimize cat q)) in
      ignore (Feedback.harvest s Options.default.Options.config cat prof : int))
    [ Q.q1; Q.q4 ];
  Feedback.save s;
  let path = Option.get (Feedback.file s) in
  let saved = read_file path in
  let digits =
    Array.of_list
      (List.filter
         (fun i -> saved.[i] >= '0' && saved.[i] <= '9')
         (List.init (String.length saved) Fun.id))
  in
  let number_chars = "0123456789eE+-." in
  let rng = Prng.create 26 in
  for trial = 1 to 120 do
    let b = Bytes.of_string saved in
    let n =
      if trial mod 2 = 0 then Prng.int rng (Bytes.length b)
      else begin
        for _ = 1 to Prng.int_in rng 1 3 do
          let i = if Prng.bool rng then Prng.pick rng digits else Prng.int rng (Bytes.length b) in
          let c =
            if Prng.bool rng then number_chars.[Prng.int rng (String.length number_chars)]
            else Char.chr (Prng.int rng 256)
          in
          Bytes.set b i c
        done;
        Bytes.length b
      end
    in
    write_file path (Bytes.sub_string b 0 n);
    match Feedback.create ~dir cat with
    | exception e -> Alcotest.failf "trial %d: load raised %s" trial (Printexc.to_string e)
    | loaded ->
      List.iter
        (fun (table, key, (o : Feedback.obs)) ->
          let v = o.Feedback.o_value in
          let lo, hi = if table = "sel" then (1e-6, 1.0) else (0., Float.infinity) in
          if not (Float.is_finite v && v >= lo && v <= hi) then
            Alcotest.failf "trial %d: %s %s loaded as %g" trial table key v)
        (Feedback.contents loaded);
      check_plans (Printf.sprintf "trial %d" trial) cat (Feedback.install loaded Options.default)
  done

(* ------------------------------------------------------------------ *)
(* The pinned plan flip on the skewed catalog                           *)

let labels plan = List.map Helpers.alg_label (Helpers.algs plan)

let run_feedback_pass db options q =
  (* One optimize + profiled execution + harvest, returning the plan,
     its profile, and options with the harvested feedback installed. *)
  let cat = Db.catalog db in
  let plan = Opt.plan_exn (Opt.optimize ~options cat q) in
  let rows, report, prof = Profile.run ~config:options.Options.config db plan in
  let store = Feedback.create cat in
  let harvested = Feedback.harvest store options.Options.config cat prof in
  (plan, rows, report, prof, harvested, Feedback.install store options)

let test_skewed_plan_flip () =
  let db = Lazy.force skewed_db in
  let cat = Db.catalog db in
  let plan1, rows1, report1, prof, harvested, options_fb =
    run_feedback_pass db Options.default Q.fred
  in
  Alcotest.(check bool) "cold plan is a full scan" true
    (List.mem "file-scan" (labels plan1));
  Alcotest.(check bool) "cold plan does not use the index" false
    (List.mem "index-scan" (labels plan1));
  Alcotest.(check bool) "harvested at least scan card and filter sel" true
    (harvested >= 2);
  let max_q, _ = Feedback.plan_quality prof in
  Alcotest.(check bool)
    (Printf.sprintf "max q-error %.1f exceeds 16" max_q)
    true
    (max_q > 16.);
  (* Re-optimize with the harvested statistics installed. *)
  let plan2 = Opt.plan_exn (Opt.optimize ~options:options_fb cat Q.fred) in
  Alcotest.(check bool) "feedback plan uses the index" true
    (List.mem "index-scan" (labels plan2));
  (* Same answer, cheaper by actually-simulated I/O. *)
  let rows2, report2, prof2 = Profile.run ~config:options_fb.Options.config db plan2 in
  Helpers.check_same_rows "flip preserves rows" rows1 rows2;
  Alcotest.(check bool)
    (Printf.sprintf "index plan cheaper by actuals (%.3fs < %.3fs)"
       report2.Executor.simulated_seconds report1.Executor.simulated_seconds)
    true
    (report2.Executor.simulated_seconds < report1.Executor.simulated_seconds);
  (* The corrected estimates are attributed to feedback in the profile. *)
  let rec any_feedback (n : Profile.node) =
    String.equal n.Profile.est_source "feedback"
    || List.exists any_feedback n.Profile.children
  in
  Alcotest.(check bool) "est_source: feedback appears" true (any_feedback prof2);
  let max_q2, _ = Feedback.plan_quality prof2 in
  Alcotest.(check bool)
    (Printf.sprintf "corrected plan's max q-error %.2f is at most 16" max_q2)
    true
    (max_q2 <= 16.)

(* ------------------------------------------------------------------ *)
(* Differential: feedback never changes answers                         *)

let test_feedback_preserves_results () =
  let dbs =
    [ ("normal", Lazy.force Helpers.small_db);
      ("skewed", Lazy.force small_skewed_db) ]
  in
  List.iter
    (fun (db_name, db) ->
      let cat = Db.catalog db in
      List.iter
        (fun batch_size ->
          let options = Options.with_batch_size batch_size Options.default in
          List.iter
            (fun (name, q) ->
              let plan_off, rows_off, _, _, _, options_fb =
                run_feedback_pass db options q
              in
              ignore (plan_off : Open_oodb.Model.Engine.plan);
              let plan_on = Opt.plan_exn (Opt.optimize ~options:options_fb cat q) in
              let rows_on =
                Executor.run ~config:options_fb.Options.config db plan_on
              in
              Helpers.check_same_rows
                (Printf.sprintf "%s on %s db, batch %d" name db_name batch_size)
                rows_off rows_on)
            (("fred", Q.fred) :: Q.all))
        [ 1; 64 ])
    dbs

let () =
  Alcotest.run "feedback"
    [ ( "q-error",
        [ Alcotest.test_case "zero-row cases" `Quick test_qerror_zero_rows ] );
      ( "store",
        [ Alcotest.test_case "round-trip and scoping" `Quick test_store_roundtrip;
          Alcotest.test_case "concurrent saves keep their own temp files" `Quick
            test_store_concurrent_save;
          Alcotest.test_case "loaded values are bounded" `Quick
            test_store_bounds_loaded_values;
          Alcotest.test_case "a body naming another scope loads nothing" `Quick
            test_store_refuses_other_scope;
          Alcotest.test_case "seeded corruption never raises" `Quick test_store_corruption ] );
      ( "loop",
        [ Alcotest.test_case "skewed-stats plan flip" `Slow test_skewed_plan_flip ] );
      ( "differential",
        [ Alcotest.test_case "row multisets preserved" `Slow
            test_feedback_preserves_results ] ) ]
