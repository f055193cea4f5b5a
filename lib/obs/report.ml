module Json = Oodb_util.Json
module Engine = Open_oodb.Model.Engine
module Optimizer = Open_oodb.Optimizer
module Options = Open_oodb.Options
module Physical = Open_oodb.Physical
module Cost = Oodb_cost.Cost
module Db = Oodb_exec.Db
module Executor = Oodb_exec.Executor

type t = {
  name : string;
  outcome : Optimizer.outcome;
  trace : Trace.t;
  rows : Executor.row list;
  report : Executor.io_report;
  profile : Profile.node option;
}

let zero_report : Executor.io_report =
  { Executor.seq_reads = 0;
    rand_reads = 0;
    writes = 0;
    buffer_hits = 0;
    buffer_misses = 0;
    buffer_evictions = 0;
    rows = 0;
    simulated_seconds = 0. }

let collect ?(options = Options.default) ?registry ?trace_capacity ?spans db ~name query
    =
  let trace = Trace.create ?capacity:trace_capacity () in
  let outcome =
    Span.with_span spans ~cat:"pipeline" name (fun () ->
        Optimizer.optimize ~options ~trace:(Trace.sink trace) ?spans (Db.catalog db)
          query)
  in
  let rows, report, profile =
    match outcome.Optimizer.plan with
    | None -> ([], zero_report, None)
    | Some plan ->
      let rows, report, prof =
        Span.with_span spans ~cat:"pipeline" "execute" (fun () ->
            Profile.run ~config:options.Options.config ?spans ?registry db plan)
      in
      (rows, report, Some prof)
  in
  (match registry with
  | None -> ()
  | Some m ->
    let key suffix = name ^ "/" ^ suffix in
    let s = outcome.Optimizer.stats in
    Metrics.incr ~by:s.Engine.groups m (key "opt/groups");
    Metrics.incr ~by:s.Engine.mexprs m (key "opt/mexprs");
    Metrics.incr ~by:s.Engine.candidates m (key "opt/candidates");
    Metrics.incr ~by:s.Engine.phys_memo_hits m (key "opt/memo_hits");
    Metrics.observe m (key "opt/seconds") outcome.Optimizer.opt_seconds;
    (* Cross-query latency distribution, alongside the per-query timer. *)
    Metrics.observe_hist m "opt/seconds" outcome.Optimizer.opt_seconds;
    (match profile with
    | None -> ()
    | Some p ->
      let rec walk (n : Profile.node) =
        Metrics.observe_hist m
          ("exec/op/" ^ Physical.to_string n.Profile.alg ^ "/exclusive_seconds")
          n.Profile.exclusive_seconds;
        List.iter walk n.Profile.children
      in
      walk p);
    Metrics.incr ~by:report.Executor.rows m (key "exec/rows");
    Metrics.incr
      ~by:(report.Executor.seq_reads + report.Executor.rand_reads)
      m (key "exec/reads");
    Metrics.incr ~by:report.Executor.writes m (key "exec/writes");
    Metrics.set m (key "exec/simulated_seconds") report.Executor.simulated_seconds);
  { name; outcome; trace; rows; report; profile }

let io_report_json (r : Executor.io_report) =
  Json.Obj
    [ ("rows", Json.Int r.Executor.rows);
      ("seq_reads", Json.Int r.Executor.seq_reads);
      ("rand_reads", Json.Int r.Executor.rand_reads);
      ("writes", Json.Int r.Executor.writes);
      ("buffer_hits", Json.Int r.Executor.buffer_hits);
      ("buffer_misses", Json.Int r.Executor.buffer_misses);
      ("buffer_evictions", Json.Int r.Executor.buffer_evictions);
      ("simulated_seconds", Json.float r.Executor.simulated_seconds) ]

let stats_json (s : Engine.stats) =
  Json.Obj
    [ ("groups", Json.Int s.Engine.groups);
      ("mexprs", Json.Int s.Engine.mexprs);
      ("trule_tried", Json.Int s.Engine.trule_tried);
      ("trule_fired", Json.Int s.Engine.trule_fired);
      ("candidates", Json.Int s.Engine.candidates);
      ("pruned_candidates", Json.Int s.Engine.pruned_candidates);
      ("enforcer_uses", Json.Int s.Engine.enforcer_uses);
      ("phys_memo_hits", Json.Int s.Engine.phys_memo_hits);
      ("closure_steps", Json.Int s.Engine.closure_steps);
      ("closure_complete", Json.Bool s.Engine.closure_complete);
      ("prov_records", Json.Int s.Engine.prov_records);
      ("prov_dropped", Json.Int s.Engine.prov_dropped) ]

let cost_json (c : Cost.t) =
  Json.Obj
    [ ("io", Json.float c.Cost.io);
      ("cpu", Json.float c.Cost.cpu);
      ("total", Json.float (Cost.total c)) ]

let to_json t =
  let plan_fields =
    match t.outcome.Optimizer.plan with
    | None -> [ ("plan", Json.Null) ]
    | Some p ->
      [ ("plan", Json.String (Format.asprintf "%a" Engine.pp_plan p));
        ("cost", cost_json p.Engine.cost) ]
  in
  Json.Obj
    [ ("name", Json.String t.name);
      ( "optimizer",
        Json.Obj
          ([ ("stats", stats_json t.outcome.Optimizer.stats);
             ("opt_seconds", Json.float t.outcome.Optimizer.opt_seconds) ]
          @ plan_fields
          @ [ ( "trace",
                Trace.to_json
                  ~prov_dropped:t.outcome.Optimizer.stats.Engine.prov_dropped
                  ~rules:(Engine.rule_counters t.outcome.Optimizer.memo)
                  t.trace )
            ]) );
      ( "execution",
        Json.Obj
          [ ("io", io_report_json t.report);
            ( "profile",
              match t.profile with
              | None -> Json.Null
              | Some p -> Profile.to_json p ) ] ) ]

let workload_json ?registry ?(extra = []) reports =
  Json.Obj
    ([ ("schema_version", Json.Int 1);
       ("queries", Json.List (List.map to_json reports)) ]
    @ (match registry with
      | None -> []
      | Some m -> [ ("metrics", Metrics.to_json (Metrics.snapshot m)) ])
    @ extra)
