module Logical = Oodb_algebra.Logical
module Catalog = Oodb_catalog.Catalog
module Estimator = Oodb_cost.Estimator
module Cost = Oodb_cost.Cost
open Model

type outcome = {
  plan : Engine.plan option;
  stats : Engine.stats;
  opt_seconds : float;
  memo : Engine.ctx;
  root : Engine.group;
}

let spec (options : Options.t) cat =
  let cfg = options.Options.config in
  { Engine.derive_lprop = Estimator.derive cfg cat;
    transformations = Trules.all cfg cat;
    implementations = Irules.all cfg cat;
    enforcers = Enforcers.all cfg cat }

(* The memo-wide type invariant (on by default through
   [Options.verify]): every multi-expression any rule interns must
   typecheck against the catalog and derive its group's type. *)
let typing_hook (options : Options.t) cat =
  if options.Options.verify then Some (Oodb_algebra.Typing.infer_op cat) else None

let prepare options cat expr =
  (match Logical.well_formed cat expr with
  | Ok () -> ()
  | Error msg -> invalid_arg (Printf.sprintf "Optimizer.optimize: ill-formed query: %s" msg));
  if options.Options.normalize then Argtrans.expr expr else expr

let lint options cat ~required plan =
  if options.Options.verify then
    match plan with
    | None -> ()
    | Some p -> (
      match Planlint.plan ~required cat p with
      | Ok () -> ()
      | Error vs ->
        invalid_arg
          (Format.asprintf "Optimizer.optimize: winning plan fails lint:@.%a"
             Planlint.pp_violations vs))

let optimize ?(options = Options.default) ?(required = Physprop.empty)
    ?(initial_limit = Cost.infinite) ?closure_fuel ?trace ?spans ?provenance cat expr =
  let expr = prepare options cat expr in
  let spec = spec options cat in
  let t0 = Oodb_util.Clock.now () in
  let result =
    Oodb_util.Span.with_span spans ~cat:"optimizer" "optimize" (fun () ->
        Engine.run ~disabled:options.Options.disabled ~pruning:options.Options.pruning
          ~initial_limit ?closure_fuel ?trace ?spans ?typing:(typing_hook options cat)
          ?provenance spec (expr_of_logical expr) ~required)
  in
  let t1 = Oodb_util.Clock.now () in
  lint options cat ~required result.Engine.plan;
  { plan = result.Engine.plan;
    stats = result.Engine.stats;
    opt_seconds = t1 -. t0;
    memo = result.Engine.ctx;
    root = result.Engine.root }

let optimize_all ?(options = Options.default) ?(required = Physprop.empty) cat qs =
  let spec = spec options cat in
  let s =
    Engine.session ~disabled:options.Options.disabled ~pruning:options.Options.pruning
      ?typing:(typing_hook options cat) spec
  in
  (* Register every root before solving any of them: the shared memo then
     reaches its full logical closure once, and a subexpression two
     queries share is physically searched exactly once. Registration time
     is attributed to the query that caused it, so later queries' smaller
     opt_seconds directly show the sharing. *)
  let roots =
    List.map
      (fun q ->
        let q = prepare options cat q in
        let t0 = Oodb_util.Clock.now () in
        let root = Engine.register s (expr_of_logical q) in
        (root, Oodb_util.Clock.now () -. t0))
      qs
  in
  List.map
    (fun (root, register_seconds) ->
      let t0 = Oodb_util.Clock.now () in
      let result = Engine.solve s root ~required in
      let t1 = Oodb_util.Clock.now () in
      lint options cat ~required result.Engine.plan;
      { plan = result.Engine.plan;
        stats = result.Engine.stats;
        opt_seconds = register_seconds +. (t1 -. t0);
        memo = result.Engine.ctx;
        root = result.Engine.root })
    roots

let plan_exn outcome =
  match outcome.plan with
  | Some p -> p
  | None -> invalid_arg "Optimizer: no plan found"

let cost outcome = (plan_exn outcome).Engine.cost

let pp_stats ppf (s : Engine.stats) =
  Format.fprintf ppf
    "groups=%d mexprs=%d rules fired/tried=%d/%d candidates=%d pruned=%d enforcers=%d \
     memo hits=%d"
    s.Engine.groups s.Engine.mexprs s.Engine.trule_fired s.Engine.trule_tried
    s.Engine.candidates s.Engine.pruned_candidates s.Engine.enforcer_uses
    s.Engine.phys_memo_hits

let explain outcome =
  match outcome.plan with
  | None -> "no plan found"
  | Some p ->
    Format.asprintf "%a@.@.anticipated cost: %a@.optimization: %.4fs, %a@." Engine.pp_plan p
      Cost.pp p.Engine.cost outcome.opt_seconds pp_stats outcome.stats
