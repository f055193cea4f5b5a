(* Command-line driver for the Open OODB query optimizer.

     oodb catalog                          print the Table 1 catalog
     oodb rules                            list togglable rule names
     oodb optimize "<zql>"                 simplify + optimize + explain
     oodb optimize --paper q1              same for a built-in paper query
     oodb optimize-all --repeat 2          batch MQO over a shared memo, warm 2nd pass
     oodb memo --paper q2                  dump the memo after closure
     oodb run "<zql>" [--scale 0.1]        optimize + execute on generated data
     oodb run --paper q1 --profile         ... with per-operator profiling
     oodb run --paper q1 --trace-out t.json   ... writing a Perfetto-loadable trace
     oodb run --paper q1 --feedback        ... closing the cardinality-feedback loop
     oodb feedback [--json|--clear]        inspect or clear the feedback store
     oodb explain --paper q3 --analyze     plan annotated with measured actuals
     oodb explain --paper q1 --why         derivation lineage of the winning plan
     oodb explain --paper q2 --memo-out m.json --memo-dot m.dot   memo export
     oodb why-not --paper q1 --force-join merge    where the alternative died
     oodb optimize --paper q1 --trace      ... with search tracing
     oodb stats [-o FILE]                  full machine-readable workload report
     oodb bench-record RUN...              history lines from saved zqlbench runs
     oodb bench-compare BASE CAND          regression gate over benchmark histories
     oodb greedy --paper q4                the ObjectStore-style greedy baseline
     oodb analyze --scale 0.2              refresh catalog statistics from data
     oodb gen --seed 42 --scenarios 100    seeded scenarios + differential fuzzing
     oodb effectiveness --seed 42          OptMark-style plan rank/regret scoring *)

module Value = Oodb_storage.Value
module Logical = Oodb_algebra.Logical
module Catalog = Oodb_catalog.Catalog
module OC = Oodb_catalog.Open_oodb_catalog
module Cost = Oodb_cost.Cost
module Opt = Open_oodb.Optimizer
module Options = Open_oodb.Options
module Engine = Open_oodb.Model.Engine
module Db = Oodb_exec.Db
module Executor = Oodb_exec.Executor
module Json = Oodb_util.Json
module Trace = Oodb_obs.Trace
module Profile = Oodb_obs.Profile
module Report = Oodb_obs.Report
module Span = Oodb_obs.Span
module Metrics = Oodb_obs.Metrics
module History = Oodb_obs.History
module Plancache = Oodb_plancache.Plancache
module Feedback = Oodb_obs.Feedback
module Provenance = Oodb_obs.Provenance
module Datagen = Oodb_workloads.Datagen
module Scenario = Oodb_scenario.Scenario
module Differential = Oodb_scenario.Differential
module Effectiveness = Oodb_scenario.Effectiveness
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                     *)

let query_pos =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"ZQL query text.")

let paper_arg =
  Arg.(
    value
    & opt (some (enum (List.map (fun (n, q) -> (n, q)) Oodb_workloads.Queries.all))) None
    & info [ "paper"; "p" ] ~docv:"NAME"
        ~doc:"Use a built-in paper query instead of ZQL text: $(b,q1), $(b,q2), $(b,q3), \
              $(b,q4), $(b,fig2) or $(b,fig3).")

let disable_arg =
  Arg.(
    value
    & opt_all (enum (List.map (fun r -> (r, r)) Options.rule_names)) []
    & info [ "disable"; "d" ] ~docv:"RULE"
        ~doc:"Disable an optimizer rule (repeatable); see $(b,oodb rules).")

(* The options layer rejects counts below 1 with [Invalid_argument];
   refusing them at parse time makes a bad value a usage error. *)
let positive_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= 1 -> Ok n
    | Ok n -> Error (`Msg (Printf.sprintf "must be at least 1, got %d" n))
    | Error _ as e -> e
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let window_arg =
  Arg.(
    value & opt (some positive_int) None
    & info [ "window"; "w" ] ~docv:"N" ~doc:"Assembly window of open references.")

let no_pruning_arg =
  Arg.(value & flag & info [ "no-pruning" ] ~doc:"Disable branch-and-bound cost limits.")

let no_indexes_arg =
  Arg.(value & flag & info [ "no-indexes" ] ~doc:"Hide all indexes from the optimizer.")

let scale_arg =
  Arg.(
    value & opt float 0.1
    & info [ "scale"; "s" ] ~docv:"S" ~doc:"Database scale factor (1.0 = paper's Table 1).")

let limit_arg =
  Arg.(value & opt int 10 & info [ "limit"; "n" ] ~docv:"N" ~doc:"Rows to print.")

let batch_size_arg =
  Arg.(
    value & opt (some positive_int) None
    & info [ "batch-size"; "b" ] ~docv:"N"
        ~doc:"Tuples per execution batch (default $(b,OODB_BATCH_SIZE) or 64; 1 = classic \
              tuple-at-a-time Volcano).")

let options_of ?batch_size disabled window no_pruning =
  let options = Options.default in
  let options = List.fold_left (fun o r -> Options.disable r o) options disabled in
  let options = match window with Some w -> Options.with_assembly_window w options | None -> options in
  let options =
    match batch_size with Some b -> Options.with_batch_size b options | None -> options
  in
  { options with Options.pruning = not no_pruning }

(* queries compile to a logical expression plus the required physical
   properties an ORDER BY implies *)
let compile_query catalog paper text =
  match paper, text with
  | Some q, _ -> Ok (q, Open_oodb.Physprop.empty)
  | None, Some text -> (
    match Zql.Simplify.compile_ordered catalog text with
    | Error _ as e -> e
    | Ok c ->
      let required =
        match c.Zql.Simplify.c_order with
        | None -> Open_oodb.Physprop.empty
        | Some (ord_binding, ord_field) ->
          { Open_oodb.Physprop.empty with
            Open_oodb.Physprop.order =
              Some { Open_oodb.Physprop.ord_binding; ord_field } }
      in
      Ok (c.Zql.Simplify.c_logical, required))
  | None, None -> Error "no query given: pass ZQL text or --paper NAME"

(* ------------------------------------------------------------------ *)
(* Commands                                                             *)

let catalog_cmd =
  let run () =
    let cat = OC.catalog_with_indexes () in
    Format.printf "%a" Catalog.pp_table cat;
    Format.printf "@.Indexes:@.";
    List.iter
      (fun ix ->
        Format.printf "  %-22s on %s(%s), %d distinct keys@." ix.Catalog.ix_name
          ix.Catalog.ix_coll
          (String.concat "." ix.Catalog.ix_path)
          ix.Catalog.ix_distinct)
      (Catalog.indexes cat)
  in
  Cmd.v (Cmd.info "catalog" ~doc:"Print the Table 1 catalog and its indexes.")
    Term.(const (fun () -> run (); 0) $ const ())

let rules_cmd =
  let run () =
    Format.printf "transformation rules:@.";
    List.iter (Format.printf "  %s@.") Open_oodb.Trules.names;
    Format.printf "implementation rules:@.";
    List.iter (Format.printf "  %s@.") Open_oodb.Irules.names;
    Format.printf "enforcers:@.";
    List.iter (Format.printf "  %s@.") Open_oodb.Enforcers.names
  in
  Cmd.v
    (Cmd.info "rules" ~doc:"List all togglable optimizer rules.")
    Term.(const (fun () -> run (); 0) $ const ())

let optimize_run paper text disabled window no_pruning no_indexes trace timeline =
  let cat = if no_indexes then OC.catalog () else OC.catalog_with_indexes () in
  match compile_query cat paper text with
  | Error m ->
    Format.eprintf "error: %s@." m;
    1
  | Ok (q, required) ->
    Format.printf "optimizer input:@.%a@.@." Logical.pp q;
    let options = options_of disabled window no_pruning in
    let recorder = if trace then Some (Trace.create ()) else None in
    let outcome =
      Opt.optimize ~options ~required ?trace:(Option.map Trace.sink recorder) cat q
    in
    Format.printf "%s" (Opt.explain outcome);
    (match recorder with
    | None -> ()
    | Some tr ->
      Format.printf "@.search trace: %a" Trace.pp_summary tr;
      Format.printf "@.%a" Trace.pp_rules (Engine.rule_counters outcome.Opt.memo);
      Format.printf "@.per-group activity:@.%a" Trace.pp_groups tr;
      if timeline > 0 then
        Format.printf "@.timeline (last %d events):@.%a" timeline
          (fun ppf tr ->
            Trace.pp_timeline ~limit:timeline
              ~prov_dropped:outcome.Opt.stats.Engine.prov_dropped ppf tr)
          tr);
    0

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace"; "t" ]
        ~doc:"Record the optimizer search trace and print its per-rule and per-group tables.")

let timeline_arg =
  Arg.(
    value & opt int 0
    & info [ "timeline" ] ~docv:"N"
        ~doc:"With $(b,--trace), also print the last $(docv) events of the search timeline.")

let optimize_cmd =
  Cmd.v
    (Cmd.info "optimize" ~doc:"Simplify, optimize and explain a query.")
    Term.(
      const optimize_run $ paper_arg $ query_pos $ disable_arg $ window_arg $ no_pruning_arg
      $ no_indexes_arg $ trace_arg $ timeline_arg)

(* ------------------------------------------------------------------ *)
(* optimize-all: the multi-query entry point                            *)

let optimize_all_run papers disabled window no_pruning no_indexes repeat =
  let cat = if no_indexes then OC.catalog () else OC.catalog_with_indexes () in
  let queries = match papers with [] -> Oodb_workloads.Queries.all | ps -> ps in
  let options = options_of disabled window no_pruning in
  let pc = Plancache.create () in
  for pass = 1 to max 1 repeat do
    Format.printf "pass %d:@." pass;
    let outcomes = Plancache.optimize_all ~options pc cat (List.map snd queries) in
    List.iter2
      (fun (name, _) (o : Plancache.outcome) ->
        match o.Plancache.plan with
        | None -> Format.printf "  %-5s no plan@." name
        | Some p ->
          Format.printf "  %-5s %-6s %.6fs  cost %a  (%d groups)@." name
            (if o.Plancache.cached then "cached" else "cold")
            o.Plancache.opt_seconds Cost.pp p.Engine.cost o.Plancache.stats.Engine.groups)
      queries outcomes
  done;
  let s = Plancache.stats pc in
  Format.printf
    "plan cache: %d hits, %d misses, %d insertions, %d evictions (%d/%d entries)@."
    s.Plancache.hits s.Plancache.misses s.Plancache.insertions s.Plancache.evictions
    s.Plancache.entries s.Plancache.capacity;
  0

let papers_all_arg =
  Arg.(
    value
    & opt_all (enum (List.map (fun (n, q) -> (n, (n, q))) Oodb_workloads.Queries.all)) []
    & info [ "paper"; "p" ] ~docv:"NAME"
        ~doc:"Add a built-in paper query to the batch (repeatable); all six when omitted.")

let repeat_arg =
  Arg.(
    value & opt int 1
    & info [ "repeat"; "r" ] ~docv:"N"
        ~doc:"Optimize the batch $(docv) times; passes after the first are served from the \
              plan cache.")

let optimize_all_cmd =
  Cmd.v
    (Cmd.info "optimize-all"
       ~doc:
         "Optimize a batch of queries against one shared memo (memo-level multi-query \
          optimization) behind the plan cache, printing per-query cost, time, and whether \
          the plan came from the cache.")
    Term.(
      const optimize_all_run $ papers_all_arg $ disable_arg $ window_arg $ no_pruning_arg
      $ no_indexes_arg $ repeat_arg)

let memo_run paper text disabled =
  let cat = OC.catalog_with_indexes () in
  match compile_query cat paper text with
  | Error m ->
    Format.eprintf "error: %s@." m;
    1
  | Ok (q, required) ->
    let options = options_of disabled None false in
    let outcome = Opt.optimize ~options ~required cat q in
    Format.printf "%a" Engine.pp_memo outcome.Opt.memo;
    Format.printf "root group: %d@." outcome.Opt.root;
    0

let memo_cmd =
  Cmd.v
    (Cmd.info "memo" ~doc:"Dump the memo (all groups and multi-expressions) after closure.")
    Term.(const memo_run $ paper_arg $ query_pos $ disable_arg)

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  output_char oc '\n';
  close_out oc

let run_run paper text disabled window no_pruning batch_size scale limit profile trace_out
    skewed feedback =
  (* one collector for the whole pipeline: compile, cache lookup, search
     phases and per-operator execution all land in the same trace *)
  let spans = Option.map (fun _ -> Span.create ()) trace_out in
  let db = if skewed then Datagen.generate_skewed ~scale () else Datagen.generate ~scale () in
  let cat = Db.catalog db in
  match
    Span.with_span spans ~cat:"zql" "parse-simplify" (fun () ->
        compile_query cat paper text)
  with
  | Error m ->
    Format.eprintf "error: %s@." m;
    1
  | Ok (q, required) ->
    let options = options_of ?batch_size disabled window no_pruning in
    let fb =
      if not feedback then None
      else
        Some
          (match Feedback.of_env cat with
          | Some f -> f
          | None -> Feedback.create cat)
    in
    let options = match fb with Some f -> Feedback.install f options | None -> options in
    let o = Plancache.optimize ~options ~required ?spans (Plancache.create ()) cat q in
    (match o.Plancache.plan with
    | None ->
      Format.eprintf "error: no plan found@.";
      1
    | Some plan ->
      let rows, report =
        if profile || feedback || Option.is_some trace_out then begin
          (* the profiler's interposed iterators are what emit the
             per-operator spans, so --trace-out implies profiling; the
             feedback loop needs per-node actuals, so --feedback does too *)
          let rows, report, prof =
            Span.with_span spans ~cat:"pipeline" "execute" (fun () ->
                Profile.run ~config:options.Options.config ?spans db plan)
          in
          if profile || feedback then
            Format.printf "plan (est vs actual):@.%a@.estimated: %a@.@." Profile.pp
              prof Cost.pp plan.Engine.cost
          else
            Format.printf "plan:@.%a@.estimated: %a@.@." Engine.pp_plan plan Cost.pp
              plan.Engine.cost;
          (match fb with
          | None -> ()
          | Some f ->
            let n = Feedback.harvest f options.Options.config cat prof in
            Feedback.save f;
            let max_q, mean_q = Feedback.plan_quality prof in
            Format.printf
              "feedback: %d observation(s) harvested, store has %d key(s)%s@.plan \
               quality: max q-error %.2f, mean %.2f@.@."
              n (Feedback.size f)
              (match Feedback.file f with
              | Some p -> Printf.sprintf " (%s)" p
              | None -> " (in-memory; set OODB_FEEDBACK_DIR to persist)")
              max_q mean_q);
          (rows, report)
        end
        else begin
          Format.printf "plan:@.%a@.estimated: %a@.@." Engine.pp_plan plan Cost.pp
            plan.Engine.cost;
          Executor.run_measured ~config:options.Options.config db plan
        end
      in
      Format.printf "%a@.@." Executor.pp_report report;
      List.iteri
        (fun i row ->
          if i < limit then
            Format.printf "%s@."
              (String.concat ", "
                 (List.map
                    (fun (k, v) -> Printf.sprintf "%s=%s" k (Value.to_string v))
                    row)))
        rows;
      if List.length rows > limit then Format.printf "... (%d rows)@." (List.length rows);
      (match trace_out, spans with
      | Some path, Some s ->
        (match Span.well_formed s with
        | Ok () -> ()
        | Error m -> Format.eprintf "warning: trace not well-formed: %s@." m);
        write_file path (Json.to_string ~minify:true (Span.to_chrome s));
        Format.eprintf "wrote %s (%d span events; load in ui.perfetto.dev)@." path
          (Span.count s)
      | _ -> ());
      0)

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:"Wrap every operator in counting iterators and print the annotated plan: \
              actual rows, estimated rows, q-error and per-operator I/O deltas.")

let trace_out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace-event JSON of the whole pipeline (compile, cache \
              lookup, search phases, per-operator execution) to $(docv); load it in \
              ui.perfetto.dev or chrome://tracing.")

let skewed_arg =
  Arg.(
    value & flag
    & info [ "skewed" ]
        ~doc:"Generate the feedback-demo database: same data, but employee-name \
              statistics corrupted to 2 distinct values (the data really has ~100), so \
              the cold optimizer misprices $(b,name = ...) predicates until a profiled \
              run under $(b,--feedback) observes the truth.")

let feedback_arg =
  Arg.(
    value & flag
    & info [ "feedback" ]
        ~doc:"Close the cardinality-feedback loop: install stored observations (from \
              $(b,OODB_FEEDBACK_DIR) when set) into the optimizer, profile the execution, \
              harvest per-node observed statistics back into the store, and report the \
              plan's quality.")

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Optimize a query and execute it on a generated database.")
    Term.(
      const run_run $ paper_arg $ query_pos $ disable_arg $ window_arg $ no_pruning_arg
      $ batch_size_arg $ scale_arg $ limit_arg $ profile_arg $ trace_out_arg $ skewed_arg
      $ feedback_arg)

(* ------------------------------------------------------------------ *)
(* feedback: inspect or clear the persistent cardinality-feedback store  *)

let feedback_run json clear scale skewed =
  let dir =
    match Sys.getenv_opt Feedback.env_var with Some d when d <> "" -> Some d | _ -> None
  in
  if clear then (
    match dir with
    | None ->
      Format.eprintf "error: %s is not set; nothing to clear@." Feedback.env_var;
      1
    | Some d ->
      let n = Feedback.clear_dir d in
      Format.printf "cleared %d feedback store(s) under %s@." n d;
      0)
  else
    match dir with
    | None ->
      Format.eprintf
        "error: %s is not set; the feedback store lives in that directory (one JSON file \
         per catalog scope)@."
        Feedback.env_var;
      1
    | Some _ -> (
      (* the store is scoped to a catalog state, so rebuild the catalog
         the observations were harvested under *)
      let db = if skewed then Datagen.generate_skewed ~scale () else Datagen.generate ~scale () in
      let cat = Db.catalog db in
      match Feedback.of_env cat with
      | None -> assert false
      | Some fb ->
        if json then begin
          print_endline (Json.to_string (Feedback.to_json fb));
          0
        end
        else begin
          (match Feedback.file fb with
          | Some p ->
            Format.printf "store: %s (catalog epoch %d)%s@." p (Catalog.epoch cat)
              (if Sys.file_exists p then "" else " — not yet written")
          | None -> ());
          let rows = Feedback.contents fb in
          if rows = [] then
            Format.printf
              "no observations for this catalog scope; run a query with 'oodb run \
               --feedback' first@."
          else begin
            Format.printf "%-6s  %-48s %12s %6s %9s@." "kind" "key" "value" "count"
              "q-error";
            List.iter
              (fun (kind, key, o) ->
                Format.printf "%-6s  %-48s %12.6g %6d %9.2f@." kind key
                  o.Feedback.o_value o.Feedback.o_count o.Feedback.o_qerror)
              rows
          end;
          0
        end)

let feedback_json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the store as machine-readable JSON.")

let feedback_clear_arg =
  Arg.(
    value & flag
    & info [ "clear" ]
        ~doc:"Remove every feedback store file under $(b,OODB_FEEDBACK_DIR) (all catalog \
              scopes).")

let feedback_cmd =
  Cmd.v
    (Cmd.info "feedback"
       ~doc:
         "Inspect the persistent cardinality-feedback store for the current catalog \
          scope: observed selectivities, collection cardinalities and unnest fanouts \
          with their merge counts and worst q-errors. With $(b,--clear), remove all \
          stores under $(b,OODB_FEEDBACK_DIR).")
    Term.(
      const feedback_run $ feedback_json_arg $ feedback_clear_arg $ scale_arg
      $ skewed_arg)

let explain_run paper text disabled window no_pruning batch_size scale analyze why skewed
    feedback memo_out memo_dot =
  let db =
    if skewed then Datagen.generate_skewed ~scale ()
    else Oodb_workloads.Datagen.generate ~scale ()
  in
  let cat = Db.catalog db in
  match compile_query cat paper text with
  | Error m ->
    Format.eprintf "error: %s@." m;
    1
  | Ok (q, required) ->
    let options = options_of ?batch_size disabled window no_pruning in
    let options =
      if not feedback then options
      else
        match Feedback.of_env cat with
        | Some f -> Feedback.install f options
        | None ->
          Format.eprintf
            "warning: --feedback but %s is unset or empty; using cold statistics@."
            Feedback.env_var;
          options
    in
    (* Lineage is recorded only for the outputs that read it; the search
       is deterministic, so the recording run is the default run *)
    let provenance = why || memo_out <> None || memo_dot <> None in
    let outcome = Opt.optimize ~options ~required ~provenance cat q in
    (* memo exports work even when no plan was found: an empty physical
       memo with full lineage is exactly what debugging wants *)
    (match memo_out with
    | None -> ()
    | Some path ->
      write_file path (Json.to_string (Provenance.memo_json outcome ~required));
      Format.eprintf "wrote %s@." path);
    (match memo_dot with
    | None -> ()
    | Some path ->
      write_file path (Provenance.memo_dot outcome ~required);
      Format.eprintf "wrote %s@." path);
    (match outcome.Opt.plan with
    | None ->
      Format.printf "no plan found@.";
      1
    | Some plan ->
      if analyze then begin
        (* The minor heap is emptied at both ends, with the result still
           live at the second, so the rows the run returns count as
           promoted. *)
        let run () =
          Gc.minor ();
          let gc0 = Gc.quick_stat () in
          let result = Profile.run ~config:options.Options.config db plan in
          Gc.minor ();
          (result, gc0, Gc.quick_stat ())
        in
        let (_rows, report, prof), gc0, gc1 = run () in
        Format.printf "plan (est vs actual, exclusive per node):@.%a@." Profile.pp prof;
        Format.printf "@.anticipated cost: %a@.optimization: %.4fs, %a@.@.%a@." Cost.pp
          plan.Engine.cost outcome.Opt.opt_seconds Opt.pp_stats outcome.Opt.stats
          Executor.pp_report report;
        Format.printf "allocation: %.0f minor + %.0f promoted words, %.0f major words@."
          (gc1.Gc.minor_words -. gc0.Gc.minor_words)
          (gc1.Gc.promoted_words -. gc0.Gc.promoted_words)
          (gc1.Gc.major_words -. gc0.Gc.major_words);
        0
      end
      else if why then begin
        match Provenance.why outcome ~required with
        | Error m ->
          Format.eprintf "error: %s@." m;
          1
        | Ok step ->
          let est =
            Provenance.est_annotations ~config:options.Options.config cat outcome
          in
          Format.printf "%s" (Opt.explain outcome);
          Format.printf "@.derivation (bottom-up):@.%a"
            (fun ppf s -> Provenance.pp_why ?est ppf s)
            step;
          let dropped = outcome.Opt.stats.Engine.prov_dropped in
          if dropped > 0 then
            Format.printf
              "WARNING: %d provenance record(s) dropped; lineage may be incomplete@."
              dropped;
          0
      end
      else begin
        Format.printf "%s" (Opt.explain outcome);
        0
      end)

let analyze_flag_arg =
  Arg.(
    value & flag
    & info [ "analyze" ]
        ~doc:"Also execute the plan and annotate every node with actual rows, q-error, \
              exclusive wall time and exclusive I/O (estimates alone otherwise).")

let why_flag_arg =
  Arg.(
    value & flag
    & info [ "why" ]
        ~doc:"Print the winning plan's derivation lineage: every node's producing \
              implementation rule, the transformation chain that derived its \
              multi-expression, per-step costs and cardinality estimates with their \
              source (model or feedback).")

let memo_out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "memo-out" ] ~docv:"FILE"
        ~doc:"Write a deterministic JSON export of the memo — groups, multi-expressions \
              with lineage, the candidate log with prune dispositions, and the winner \
              path — to $(docv).")

let memo_dot_arg =
  Arg.(
    value & opt (some string) None
    & info [ "memo-dot" ] ~docv:"FILE"
        ~doc:"Write a Graphviz DOT rendering of the memo DAG to $(docv): lineage edges \
              labeled with producing rules, the winner path in red, pruned-everywhere \
              nodes dashed.")

let explain_cmd =
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show the chosen plan for a query; with $(b,--analyze), execute it and fuse the \
          optimizer's estimates with measured per-operator actuals; with $(b,--why), \
          print the plan's derivation lineage; with $(b,--memo-out)/$(b,--memo-dot), \
          export the memo as deterministic JSON or Graphviz DOT.")
    Term.(
      const explain_run $ paper_arg $ query_pos $ disable_arg $ window_arg $ no_pruning_arg
      $ batch_size_arg $ scale_arg $ analyze_flag_arg $ why_flag_arg $ skewed_arg
      $ feedback_arg $ memo_out_arg $ memo_dot_arg)

(* ------------------------------------------------------------------ *)
(* why-not: counterfactual plan-shape classification                     *)

let why_not_run paper text chain disabled window no_pruning no_indexes skewed feedback
    scale force_index force_join force_scan force_alg json =
  let shape =
    match force_index, force_join, force_scan, force_alg with
    | Some ix, None, None, None -> Ok (Provenance.Force_index ix)
    | None, Some j, None, None -> Ok (Provenance.Force_join j)
    | None, None, Some c, None -> Ok (Provenance.Force_scan c)
    | None, None, None, Some a -> Ok (Provenance.Force_alg a)
    | None, None, None, None ->
      Error "no shape given: pass --force-index, --force-join, --force-scan or --force-alg"
    | _ -> Error "pass exactly one of --force-index/--force-join/--force-scan/--force-alg"
  in
  match shape with
  | Error m ->
    Format.eprintf "error: %s@." m;
    1
  | Ok shape -> (
    let cat =
      if skewed then Db.catalog (Datagen.generate_skewed ~scale ())
      else if no_indexes then OC.catalog ()
      else OC.catalog_with_indexes ()
    in
    let compiled =
      match chain with
      | Some w -> Ok (Oodb_workloads.Queries.join_chain w, Open_oodb.Physprop.empty)
      | None -> compile_query cat paper text
    in
    match compiled with
    | Error m ->
      Format.eprintf "error: %s@." m;
      1
    | Ok (q, required) -> (
      let options = options_of disabled window no_pruning in
      let options =
        if not feedback then options
        else
          match Feedback.of_env cat with
          | Some f -> Feedback.install f options
          | None ->
            Format.eprintf
              "warning: --feedback but %s is unset or empty; using cold statistics@."
              Feedback.env_var;
            options
      in
      let replay options = Opt.optimize ~options ~required ~provenance:true cat q in
      match Provenance.classify ~options ~replay (replay options) shape with
      | Error m ->
        Format.eprintf "error: %s@." m;
        1
      | Ok cl ->
        if json then
          print_endline (Json.to_string (Provenance.classification_json cl))
        else Format.printf "%a" Provenance.pp_classification cl;
        0))

let chain_arg =
  Arg.(
    value & opt (some int) None
    & info [ "chain" ] ~docv:"W"
        ~doc:"Use the built-in $(docv)-way chain-join query instead of ZQL text or \
              $(b,--paper) (a wide search space with many pruned candidates).")

let force_index_arg =
  Arg.(
    value & opt (some string) None
    & info [ "force-index" ] ~docv:"NAME"
        ~doc:"Ask why the plan does not scan through index $(docv) (empty string: any \
              index scan).")

let force_join_arg =
  Arg.(
    value & opt (some string) None
    & info [ "force-join" ] ~docv:"KIND"
        ~doc:"Ask why the plan does not use a $(docv) join: $(b,hash), $(b,merge) or \
              $(b,pointer).")

let force_scan_arg =
  Arg.(
    value & opt (some string) None
    & info [ "force-scan" ] ~docv:"COLL"
        ~doc:"Ask why the plan does not file-scan collection $(docv) (empty string: any \
              file scan).")

let force_alg_arg =
  Arg.(
    value & opt (some string) None
    & info [ "force-alg" ] ~docv:"LABEL"
        ~doc:"Ask why the plan does not contain algorithm $(docv) (e.g. $(b,sort), \
              $(b,assembly)).")

let why_not_json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the classification as JSON.")

let why_not_cmd =
  Cmd.v
    (Cmd.info "why-not"
       ~doc:
         "Classify why a hypothetical plan shape is absent from the chosen plan: \
          $(b,never derived) (no producing rule fired — e.g. the rule is disabled or \
          no such index exists), $(b,derived but lost) (costed, but beaten — the \
          report decomposes the cost gap into I/O and CPU), or $(b,pruned) (died \
          under the branch-and-bound limit — the report replays the bound and the \
          margin). The query is optimized with provenance recording on.")
    Term.(
      const why_not_run $ paper_arg $ query_pos $ chain_arg $ disable_arg $ window_arg
      $ no_pruning_arg $ no_indexes_arg $ skewed_arg $ feedback_arg $ scale_arg
      $ force_index_arg $ force_join_arg $ force_scan_arg $ force_alg_arg $ why_not_json_arg)

(* ------------------------------------------------------------------ *)
(* bench-record and bench-compare: the benchmark history                *)

let git_describe () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
    let line = Option.value ~default:"" (In_channel.input_line ic) in
    ignore (Unix.close_process_in ic);
    if line = "" then "unknown" else line

let bench_record_run runs =
  let sha = git_describe () in
  let date =
    let tm = Unix.gmtime (Unix.time ()) in
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
      tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
  in
  let records =
    List.map
      (fun path ->
        match In_channel.with_open_text path In_channel.input_all with
        | exception Sys_error e -> Error e
        | text -> Result.map_error (fun e -> path ^ ": " ^ e) (History.of_capture ~sha ~date text))
      runs
  in
  match List.partition_map (function Ok r -> Left r | Error e -> Right e) records with
  | records, [] ->
    List.iter (fun r -> print_endline (Json.to_string ~minify:true (History.to_json r))) records;
    0
  | _, e :: _ ->
    Format.eprintf "error: %s@." e;
    2

let bench_record_cmd =
  Cmd.v
    (Cmd.info "bench-record"
       ~doc:
         "Print one benchmark-history line per saved zqlbench stdout: the result on its last \
          line, the workload and seed from its traffic line, the commit from git describe \
          and the date. Append the output to BENCH_history.jsonl. Nothing is printed unless \
          every run parses.")
    Term.(
      const bench_record_run
      $ Arg.(non_empty & pos_all string [] & info [] ~docv:"RUN" ~doc:"Saved zqlbench stdout."))

let bench_compare_run baseline candidate report_only =
  let ( let* ) = Result.bind in
  match
    let* bounds = History.bounds "BENCHMARK.json" in
    let* baseline = History.load baseline in
    let* candidate = History.load candidate in
    Ok (History.compare ~bounds ~baseline ~candidate)
  with
  | Error e ->
    Format.eprintf "error: %s@." e;
    2
  | Ok c ->
    Format.printf "%a" History.pp_comparison c;
    if History.regressed c && not report_only then 1 else 0

let report_only_arg =
  Arg.(
    value & flag
    & info [ "report-only" ]
        ~doc:"Print the comparison but exit 0 even on a regression (for advisory CI \
              gates).")

let bench_compare_cmd =
  Cmd.v
    (Cmd.info "bench-compare"
       ~doc:
         "Compare a candidate benchmark history with a baseline, per workload and metric, \
          newest record against newest record. The end-to-end metrics are judged by their \
          bounds in ./BENCHMARK.json, a rise in the failed share or a wrong answer also \
          regresses, and per-layer metrics are printed only. Exits 0 when nothing \
          regressed, 1 on a regression and 2 on unreadable input.")
    Term.(
      const bench_compare_run
      $ Arg.(required & pos 0 (some string) None & info [] ~docv:"BASELINE"
               ~doc:"Baseline history (JSONL).")
      $ Arg.(required & pos 1 (some string) None & info [] ~docv:"CANDIDATE"
               ~doc:"Candidate history (JSONL), as printed by bench-record.")
      $ report_only_arg)

let greedy_run paper text =
  let cat = OC.catalog_with_indexes () in
  match compile_query cat paper text with
  | Error m ->
    Format.eprintf "error: %s@." m;
    1
  | Ok (q, _required) -> (
    match Oodb_baselines.Greedy.optimize cat q with
    | Error m ->
      Format.eprintf "greedy: %s@." m;
      1
    | Ok plan ->
      Format.printf "greedy plan:@.%a@.anticipated cost: %a@." Engine.pp_plan plan Cost.pp
        plan.Engine.cost;
      let full = Opt.optimize cat q in
      Format.printf "cost-based optimum: %a (%.1fx better)@." Cost.pp (Opt.cost full)
        (Cost.total plan.Engine.cost /. Cost.total (Opt.cost full));
      0)

let analyze_run scale =
  let db = Oodb_workloads.Datagen.generate ~scale () in
  let report = Oodb_exec.Analyze.refresh db in
  Format.printf "%a@.@." Oodb_exec.Analyze.pp_report report;
  Format.printf "%a" Catalog.pp_table (Db.catalog db);
  Format.printf "@.Refreshed index statistics:@.";
  List.iter
    (fun ix ->
      Format.printf "  %-22s %d distinct keys@." ix.Catalog.ix_name ix.Catalog.ix_distinct)
    (Catalog.indexes (Db.catalog db));
  0

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Generate a database and refresh its catalog statistics from the stored data.")
    Term.(const analyze_run $ scale_arg)

let greedy_cmd =
  Cmd.v
    (Cmd.info "greedy" ~doc:"Run the ObjectStore-style greedy baseline and compare.")
    Term.(const greedy_run $ paper_arg $ query_pos)

let stats_run scale out disabled window no_pruning =
  let db = Oodb_workloads.Datagen.generate ~scale () in
  let options = options_of disabled window no_pruning in
  let registry = Oodb_obs.Metrics.create () in
  let reports =
    List.map
      (fun (name, q) -> Report.collect ~options ~registry db ~name q)
      Oodb_workloads.Queries.all
  in
  (* cold-then-warm sweep through the plan cache: the second pass should
     be all hits, and its time collapse is part of the report *)
  let pc = Plancache.create () in
  let cat = Db.catalog db in
  let qs = List.map snd Oodb_workloads.Queries.all in
  let sum_opt os =
    List.fold_left (fun acc (o : Plancache.outcome) -> acc +. o.Plancache.opt_seconds) 0. os
  in
  let cold = Plancache.optimize_all ~options ~registry pc cat qs in
  let warm = Plancache.optimize_all ~options ~registry pc cat qs in
  (* plan-quality pass: profile each cached plan once, report its
     measured q-errors and harvest the observations into an in-memory
     store so the report carries est-vs-actual provenance *)
  let fb = Feedback.create cat in
  let quality =
    List.map2
      (fun (name, _) (o : Plancache.outcome) ->
        match o.Plancache.plan with
        | None -> (name, Json.Null)
        | Some plan ->
          let _rows, _report, prof = Profile.run ~config:options.Options.config db plan in
          let max_q, mean_q = Feedback.plan_quality prof in
          ignore (Feedback.harvest ~registry fb options.Options.config cat prof);
          ( name,
            Plancache.quality_json
              { Plancache.q_execs = 1; q_max_qerror = max_q; q_mean_qerror = mean_q;
                q_last_epoch = Catalog.epoch cat } ))
      Oodb_workloads.Queries.all cold
  in
  let extra =
    [ ( "plan_cache",
        Json.Obj
          [ ("stats", Plancache.stats_json (Plancache.stats pc));
            ("cold_opt_seconds", Json.float (sum_opt cold));
            ("warm_opt_seconds", Json.float (sum_opt warm));
            ("plan_quality", Json.Obj quality) ] );
      ("feedback", Feedback.to_json fb) ]
  in
  let json = Report.workload_json ~registry ~extra reports in
  let text = Json.to_string json in
  (match out with
  | None -> print_endline text
  | Some path ->
    let oc = open_out path in
    output_string oc text;
    output_char oc '\n';
    close_out oc;
    Format.eprintf "wrote %s@." path);
  0

let out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Write the JSON report to $(docv) instead of stdout.")

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Optimize and execute every workload query with tracing and profiling on, and emit \
          one machine-readable JSON report: search statistics, per-rule and per-group trace \
          tables (the paper's Tables 2-3 shape), chosen plans with costs, measured I/O, and \
          per-operator profiles with estimated-vs-actual q-errors.")
    Term.(const stats_run $ scale_arg $ out_arg $ disable_arg $ window_arg $ no_pruning_arg)

(* ------------------------------------------------------------------ *)
(* lint: all verifier passes over queries x optimizers x rule subsets    *)

let lint_run verbose strict =
  let queries = Oodb_workloads.Queries.all in
  let catalogs = [ ("indexes", OC.catalog_with_indexes ()); ("no-indexes", OC.catalog ()) ] in
  let variants =
    [ ("default", Options.default);
      ("warm-start", Options.with_warm_start Options.default);
      ("window-1", Options.with_assembly_window 1 Options.default);
      ("no-pruning", { Options.default with Options.pruning = false }) ]
    @ List.map
        (fun r -> ("disable:" ^ r, Options.disable r Options.default))
        Options.rule_names
  in
  let failures = ref 0 in
  let warnings = ref 0 in
  let checked = ref 0 in
  let planned = ref 0 in
  let fail fmt =
    incr failures;
    Format.printf fmt
  in
  let warn fmt =
    incr warnings;
    Format.printf fmt
  in
  let lint_plan label cat plan =
    incr planned;
    (match Oodb_verify.Verify.plan cat plan with
    | Ok () -> ()
    | Error vs ->
      fail "FAIL %s: plan lint@.%a@." label Oodb_verify.Verify.pp_violations vs);
    match Oodb_verify.Verify.plan_costs plan with
    | Ok () -> ()
    | Error vs ->
      fail "FAIL %s: cost sanity@." label;
      List.iter (Format.printf "  %a@." Oodb_verify.Verify.pp_cost_violation) vs
  in
  List.iter
    (fun (cat_name, cat) ->
      List.iter
        (fun (variant, options) ->
          (* lint explicitly: verify=off so violations are reported, not raised *)
          let options = { options with Options.verify = false } in
          List.iter
            (fun (qname, q) ->
              let label = Printf.sprintf "%s/%s/%s" cat_name variant qname in
              incr checked;
              if verbose then Format.printf "lint %s@." label;
              let outcome = Opt.optimize ~options cat q in
              (match outcome.Opt.plan with
              | Some plan -> lint_plan label cat plan
              | None -> ());
              (match
                 Oodb_verify.Verify.memo ~config:options.Options.config cat
                   outcome.Opt.memo
               with
              | Ok () -> ()
              | Error vs ->
                fail "FAIL %s: memo consistency@." label;
                List.iter (Format.printf "  %a@." Oodb_verify.Verify.pp_memo_violation) vs);
              match Oodb_verify.Verify.types cat outcome.Opt.memo with
              | Ok () -> ()
              | Error vs ->
                fail "FAIL %s: memo-wide type consistency@." label;
                List.iter (Format.printf "  %a@." Oodb_verify.Verify.pp_typ_violation) vs)
            queries)
        variants;
      (* baselines *)
      List.iter
        (fun (qname, q) ->
          (match Oodb_baselines.Greedy.optimize cat q with
          | Ok plan ->
            incr checked;
            lint_plan (Printf.sprintf "%s/greedy/%s" cat_name qname) cat plan
          | Error _ -> (* query outside the greedy baseline's shape *) ());
          let outcome = Oodb_baselines.Naive.optimize cat q in
          incr checked;
          match outcome.Opt.plan with
          | Some plan -> lint_plan (Printf.sprintf "%s/naive/%s" cat_name qname) cat plan
          | None -> ())
        queries)
    catalogs;
  (* rule-set analysis: coverage + termination over the certification
     corpus (the paper workload plus the synthetic set-operation
     queries, so setop rules are not spuriously reported dead) *)
  let report =
    Oodb_verify.Verify.rules (OC.catalog_with_indexes ()) Oodb_verify.Certify.corpus
  in
  Format.printf "@.rule coverage over the certification corpus:@.%a"
    Oodb_verify.Verify.pp_rules_report report;
  if not (Oodb_verify.Verify.rules_ok report) then
    fail "FAIL rule-set analysis: closure diverged@.";
  List.iter
    (fun r -> warn "WARN rule %s never fired over the certification corpus@." r)
    report.Oodb_verify.Verify.never_fired;
  Format.printf "@.lint: %d configurations, %d plans linted, %d failure(s), %d warning(s)@."
    !checked !planned !failures !warnings;
  if !failures > 0 then 1 else if strict && !warnings > 0 then 1 else 0

let lint_cmd =
  let verbose_arg =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print each configuration as it is checked.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Exit nonzero on warnings (e.g. never-firing rules), not just failures.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run all verifier passes (plan linter, memo consistency, memo-wide type \
          consistency, cost sanity, rule-set analysis) over the workload queries under \
          every baseline optimizer and rule-toggle subset.")
    Term.(const lint_run $ verbose_arg $ strict_arg)

(* ------------------------------------------------------------------ *)
(* certify-rules: static + bounded denotational rule-soundness pass      *)

let certify_run json_out =
  let report = Oodb_verify.Certify.run () in
  Format.printf "%a@." Oodb_verify.Certify.pp_report report;
  (match json_out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Json.to_string (Oodb_verify.Certify.to_json report));
    output_char oc '\n';
    close_out oc;
    Format.eprintf "wrote %s@." path);
  if Oodb_verify.Certify.ok report then 0 else 1

let certify_cmd =
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the machine-readable report to $(docv).")
  in
  Cmd.v
    (Cmd.info "certify-rules"
       ~doc:
         "Certify every registered optimizer rule: static type/cardinality preservation and \
          guard completeness, then bounded denotational checking — both sides of every \
          harvested rewrite (and every winning plan) executed over enumerated \
          micro-databases and compared as row multisets. Exits nonzero if any rule is \
          refuted, statically unsound, or never exercised.")
    Term.(const certify_run $ json_arg)

(* ------------------------------------------------------------------ *)
(* gen / effectiveness: the seeded scenario factory                     *)

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"S"
        ~doc:"Root seed; every scenario is derived from (seed, index), so scenario $(i,i) \
              is the same regardless of how many scenarios are generated around it.")

let scenarios_arg =
  Arg.(value & opt int 10 & info [ "scenarios"; "n" ] ~docv:"N" ~doc:"Scenarios to generate.")

let zql_out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "zql-out" ] ~docv:"DIR"
        ~doc:"Also write every generated query as $(docv)/s<index>_<name>.zql.")

let emit_json out json =
  let text = Json.to_string json in
  match out with
  | None -> print_endline text
  | Some path ->
    let oc = open_out path in
    output_string oc text;
    output_char oc '\n';
    close_out oc;
    Format.eprintf "wrote %s@." path

let join_width_arg =
  Arg.(
    value & opt (some int) None
    & info [ "join-width" ] ~docv:"W"
        ~doc:"Append a $(docv)-way chain-join query (name [wide]) to every scenario's query \
              set — the wide-join scaling knob for the differential variants.")

let gen_run seed n join_width zql_out out =
  (match zql_out with
  | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
  | _ -> ());
  let failed = ref 0 in
  let reports =
    List.init n (fun index ->
        let sc = Scenario.generate ?join_width ~seed ~index () in
        (match zql_out with
        | None -> ()
        | Some dir ->
          List.iter
            (fun (qc : Scenario.query_case) ->
              write_file
                (Filename.concat dir
                   (Printf.sprintf "s%d_%s.zql" index qc.Scenario.qc_name))
                qc.Scenario.qc_zql)
            sc.Scenario.sc_queries);
        let r = Differential.run sc in
        if r.Differential.d_failures <> [] then begin
          incr failed;
          List.iter
            (fun (f : Differential.failure) ->
              Format.eprintf "scenario %d: %s under %s: %s@.  zql: %s@.  shrunk: %s@." index
                f.Differential.f_query f.Differential.f_variant f.Differential.f_detail
                f.Differential.f_zql f.Differential.f_shrunk_zql)
            r.Differential.d_failures
        end;
        Json.Obj
          [ ("digest", Json.String (Scenario.digest sc));
            ("scenario", Scenario.to_json sc);
            ("differential", Differential.report_json r) ])
  in
  (* no wall-clock anywhere in the report: repeated runs must produce
     byte-identical JSON (the reproducibility contract) *)
  let json =
    Json.Obj
      [ ("seed", Json.Int seed); ("scenarios", Json.Int n);
        ("reports", Json.List reports) ]
  in
  let digest = Digest.to_hex (Digest.string (Json.to_string json)) in
  emit_json out (Json.Obj [ ("digest", Json.String digest); ("report", json) ]);
  if !failed > 0 then 1 else 0

let gen_cmd =
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate seeded random scenarios (OODB schema, populated store, indexes, ZQL \
          queries) and differentially fuzz each one: every query is optimized and executed \
          under batch-size, pruning, rule-toggle, plan-cache and feedback variants, every \
          winner is statically verified, and all row multisets must agree. Failures are \
          shrunk to minimal ZQL counterexamples. The JSON report is deterministic: same \
          seed, same bytes.")
    Term.(const gen_run $ seed_arg $ scenarios_arg $ join_width_arg $ zql_out_arg $ out_arg)

let effectiveness_run seed n sample out =
  let mismatches = ref 0 in
  let reports =
    List.init n (fun index ->
        let t0 = Oodb_util.Clock.now () in
        let sc = Scenario.generate ~seed ~index () in
        let r = Effectiveness.run ~sample sc in
        List.iter
          (fun (s : Effectiveness.score) ->
            mismatches := !mismatches + s.Effectiveness.s_row_mismatches)
          r.Effectiveness.e_scores;
        Printf.eprintf "scenario %d: scored in %.1fs\n%!" index
          (Oodb_util.Clock.now () -. t0);
        Effectiveness.report_json r)
  in
  emit_json out
    (Json.Obj
       [ ("seed", Json.Int seed); ("scenarios", Json.Int n); ("sample", Json.Int sample);
         ("reports", Json.List reports) ]);
  if !mismatches > 0 then 1 else 0

let sample_arg =
  Arg.(
    value & opt int 12
    & info [ "sample" ] ~docv:"K"
        ~doc:"Alternative plans sampled from the memo per query (chosen plan included).")

let effectiveness_cmd =
  Cmd.v
    (Cmd.info "effectiveness"
       ~doc:
         "OptMark-style optimizer effectiveness scoring over seeded scenarios: sample \
          structurally distinct alternative plans from each query's memo, execute every \
          one on the simulated store, and report the chosen plan's rank and regret \
          against the best sampled alternative. Each report includes a negative control \
          (the anchor lookup re-scored under corrupted statistics) whose regret is \
          expected to exceed 1. Exits nonzero if any sampled plan disagrees on rows.")
    Term.(const effectiveness_run $ seed_arg $ scenarios_arg $ sample_arg $ out_arg)

let () =
  let doc = "The Open OODB query optimizer (SIGMOD 1993 reproduction)" in
  let info = Cmd.info "oodb" ~version:"1.0.0" ~doc in
  exit (Cmd.eval' (Cmd.group info
          [ catalog_cmd; rules_cmd; optimize_cmd; optimize_all_cmd; memo_cmd; run_cmd;
            feedback_cmd; explain_cmd; why_not_cmd; bench_record_cmd; bench_compare_cmd; greedy_cmd;
            analyze_cmd; stats_cmd; lint_cmd; certify_cmd; gen_cmd; effectiveness_cmd ]))
