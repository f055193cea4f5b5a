(* Rule-soundness certifier.

   For every registered rule — logical transformation, physical
   implementation, enforcer — this pass builds an evidence-backed
   verdict that the rule preserves query semantics:

   - {e Logical rules} are certified per {e instance}: every (input
     multi-expression, produced alternative) pair actually harvested
     from the memo over a query corpus. Each instance is checked
     statically — both sides must typecheck to the same {!Typing.t}
     (schema, scoping, duplicate semantics) and agree on estimated
     cardinality — and then {e denotationally}: both sides are executed
     with the reference interpreter ({!Interp}) over an enumerated
     family of micro-databases (2–4 objects per extent,
     {!Oodb_workloads.Datagen.micro_family}) and must produce the same
     row multiset on every one. A mismatch yields a concrete
     counterexample: the database, both expressions, both row lists.

   - {e Physical rules} are certified per {e plan occurrence}: the
     optimizer is run over the corpus under a family of option variants
     chosen so every implementation rule and enforcer appears in at
     least one winning plan (rule-toggle forcing, warm-start, ordered
     goals for the sort enforcer). Each winning plan is executed on each
     micro-database and compared against the interpreter's answer for
     the original query; every rule whose algorithm appears in a
     mismatching plan is refuted with the counterexample.

   Guard completeness is checked by construction: every rule
   application runs under a handler, and a rule that raises instead of
   declining (returning no alternatives) is reported as
   [Static_refuted] — an incomplete applicability guard.

   The same harvest feeds a rule-set meta-analysis: overlapping rules
   (two rules producing alternatives at the same memo site — confluence
   risk), ping-pong pairs (A rewrites x to y, B rewrites y back to x —
   termination risk handled by memo deduplication, but worth knowing),
   and dead rules the corpus never exercises. *)

module Value = Oodb_storage.Value
module Catalog = Oodb_catalog.Catalog
module Logical = Oodb_algebra.Logical
module Pred = Oodb_algebra.Pred
module Typing = Oodb_algebra.Typing
module Config = Oodb_cost.Config
module Lprops = Oodb_cost.Lprops
module Estimator = Oodb_cost.Estimator
module Model = Open_oodb.Model
module Engine = Open_oodb.Model.Engine
module Options = Open_oodb.Options
module Optimizer = Open_oodb.Optimizer
module Physical = Open_oodb.Physical
module Physprop = Open_oodb.Physprop
module Trules = Open_oodb.Trules
module Irules = Open_oodb.Irules
module Enforcers = Open_oodb.Enforcers
module Argtrans = Open_oodb.Argtrans
module Db = Oodb_exec.Db
module Executor = Oodb_exec.Executor
module Datagen = Oodb_workloads.Datagen
module Queries = Oodb_workloads.Queries
module Json = Oodb_util.Json

type kind =
  | Transformation
  | Implementation
  | Enforcer

let kind_name = function
  | Transformation -> "transformation"
  | Implementation -> "implementation"
  | Enforcer -> "enforcer"

type counterexample = {
  cx_variant : int;
  cx_db : string;
  cx_setting : string;
  cx_lhs : string;
  cx_rhs : string;
  cx_expected : Interp.row list;
  cx_actual : Interp.row list;
}

type status =
  | Certified
  | Bounded_only of string
  | No_instances
  | Static_refuted of string
  | Refuted of counterexample

let status_name = function
  | Certified -> "certified"
  | Bounded_only _ -> "bounded-only"
  | No_instances -> "no-instances"
  | Static_refuted _ -> "static-refuted"
  | Refuted _ -> "refuted"

let uncertified = function
  | Certified | Bounded_only _ -> false
  | No_instances | Static_refuted _ | Refuted _ -> true

type rule_report = {
  rr_rule : string;
  rr_kind : kind;
  rr_instances : int;  (** distinct rewrite instances / plan occurrences *)
  rr_checks : int;  (** denotational comparisons run *)
  rr_status : status;
}

type meta = {
  m_overlaps : (string * string * int) list;
  m_pingpong : (string * string * int) list;
  m_dead : string list;
}

type report = {
  cert_rules : rule_report list;
  cert_meta : meta;
  cert_dbs : int;
  cert_queries : int;
}

(* ------------------------------------------------------------------ *)
(* Corpus                                                               *)

(* The paper workload never uses the set operations, so setop-commute
   and setop-assoc would go uncertified (and be reported dead) without
   these synthetic queries. *)
let setop_queries =
  let emp () = Logical.get ~coll:"Employees" ~binding:"e" in
  let atom cmp l r = { Pred.cmp; lhs = l; rhs = r } in
  let young =
    Logical.select
      [ atom Pred.Lt (Pred.Field ("e", "age")) (Pred.Const (Value.Int 40)) ]
      (emp ())
  in
  let rich =
    Logical.select
      [ atom Pred.Gt (Pred.Field ("e", "salary")) (Pred.Const (Value.Float 30_000.0)) ]
      (emp ())
  in
  let named =
    Logical.select
      [ atom Pred.Eq (Pred.Field ("e", "name")) (Pred.Const (Value.Str "Fred")) ]
      (emp ())
  in
  [ ("setop-union", Logical.union young rich);
    ("setop-union-nested", Logical.union (Logical.union young rich) named);
    ("setop-intersect", Logical.intersect young rich);
    ("setop-difference", Logical.difference young named) ]

let corpus = Queries.all @ setop_queries

(* ------------------------------------------------------------------ *)
(* Harvesting transformation-rule instances from the memo               *)

type instance = { i_lhs : Logical.t; i_rhs : Logical.t }

(* Rebuild one representative logical expression per memo group, bottom
   up to a fixpoint (groups may reference groups created later, e.g. by
   select-split). Any member works as the representative: certification
   compares each rule's two sides, not the representative itself. *)
let reps_of ctx =
  let tbl : (Engine.group, Logical.t) Hashtbl.t = Hashtbl.create 64 in
  let gs = Engine.groups ctx in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun g ->
        if not (Hashtbl.mem tbl g) then
          List.iter
            (fun (m : Engine.mexpr) ->
              if not (Hashtbl.mem tbl g) then begin
                let ins = List.map (Hashtbl.find_opt tbl) m.Engine.minputs in
                if List.for_all Option.is_some ins then begin
                  Hashtbl.add tbl g
                    { Logical.op = m.Engine.mop; inputs = List.map Option.get ins };
                  changed := true
                end
              end)
            (Engine.group_exprs ctx g))
      gs
  done;
  tbl

let rec logical_of_build reps = function
  | Engine.Ref g -> (
    match Hashtbl.find_opt reps g with
    | Some e -> Ok e
    | None -> Error (Printf.sprintf "no representative for group %d" g))
  | Engine.Node (op, children) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | c :: rest -> (
        match logical_of_build reps c with
        | Ok e -> go (e :: acc) rest
        | Error _ as e -> e)
    in
    Result.bind (go [] children) (fun inputs ->
        if Logical.arity op <> List.length inputs then
          Error "rule produced an expression with the wrong arity"
        else Ok { Logical.op; inputs })

type harvest = {
  h_instances : (string, instance list) Hashtbl.t;  (** rule -> instances, newest first *)
  h_guard_errors : (string, string) Hashtbl.t;  (** rule -> first exception *)
  h_overlaps : (string * string, int) Hashtbl.t;
  h_pingpong : (string * string, int) Hashtbl.t;
  h_fired : (string, int) Hashtbl.t;
}

let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

(* A rule that raises instead of declining has an incomplete
   applicability guard; record the exception and treat the application
   as producing nothing so harvesting survives. *)
let guarded h (r : Engine.trule) =
  { r with
    Engine.t_apply =
      (fun ctx m ->
        try r.Engine.t_apply ctx m
        with e ->
          if not (Hashtbl.mem h.h_guard_errors r.Engine.t_name) then
            Hashtbl.add h.h_guard_errors r.Engine.t_name (Printexc.to_string e);
          []) }

let record_instance h ~max_instances rule inst =
  let existing = Option.value ~default:[] (Hashtbl.find_opt h.h_instances rule) in
  if
    List.length existing < max_instances
    && not
         (List.exists
            (fun i -> Logical.equal i.i_lhs inst.i_lhs && Logical.equal i.i_rhs inst.i_rhs)
            existing)
  then Hashtbl.replace h.h_instances rule (inst :: existing)

(* Harvest every (multi-expression, alternative) pair each rule produces
   over the corpus: run the logical closure per query (transformations
   only — physical search is irrelevant here and a broken rule must not
   be masked by it), then sweep the final memo re-applying every rule to
   every multi-expression. *)
let harvest_trules ~cfg ~cat ~disabled ~trules ~max_instances queries =
  let h =
    { h_instances = Hashtbl.create 32;
      h_guard_errors = Hashtbl.create 8;
      h_overlaps = Hashtbl.create 32;
      h_pingpong = Hashtbl.create 8;
      h_fired = Hashtbl.create 32 }
  in
  let trules = List.map (guarded h) trules in
  let enabled = List.filter (fun (r : Engine.trule) -> not (List.mem r.Engine.t_name disabled)) trules in
  let spec =
    { Engine.derive_lprop = Estimator.derive cfg cat;
      transformations = trules;
      implementations = [];
      enforcers = [] }
  in
  List.iter
    (fun (_qname, q) ->
      let s = Engine.session ~disabled spec in
      let _root = Engine.register s (Model.expr_of_logical q) in
      let ctx = Engine.session_ctx s in
      let reps = reps_of ctx in
      List.iter
        (fun g ->
          (* productions within this group, for the ping-pong analysis *)
          let productions = ref [] in
          List.iter
            (fun (m : Engine.mexpr) ->
              let lhs =
                let ins = List.map (Hashtbl.find_opt reps) m.Engine.minputs in
                if List.for_all Option.is_some ins then
                  Some { Logical.op = m.Engine.mop; inputs = List.map Option.get ins }
                else None
              in
              let site_rules = ref [] in
              List.iter
                (fun (r : Engine.trule) ->
                  let builds = r.Engine.t_apply ctx m in
                  if builds <> [] then begin
                    bump h.h_fired r.Engine.t_name;
                    site_rules := r.Engine.t_name :: !site_rules
                  end;
                  match lhs with
                  | None -> ()
                  | Some lhs ->
                    List.iter
                      (fun b ->
                        match logical_of_build reps b with
                        | Error _ -> ()  (* alternative over an unrepresentable group *)
                        | Ok rhs ->
                          record_instance h ~max_instances r.Engine.t_name
                            { i_lhs = lhs; i_rhs = rhs };
                          productions := (lhs, r.Engine.t_name, rhs) :: !productions)
                      builds)
                enabled;
              (* two rules firing at the same memo site: overlapping
                 left-hand sides (confluence risk) *)
              let rec pairs = function
                | [] -> ()
                | a :: rest ->
                  List.iter
                    (fun b ->
                      let k = if a < b then (a, b) else (b, a) in
                      bump h.h_overlaps k)
                    rest;
                  pairs rest
              in
              pairs (List.sort_uniq compare !site_rules))
            (Engine.group_exprs ctx g);
          (* ping-pong: r1 turns x into y and r2 turns y back into x *)
          List.iter
            (fun (x, r1, y) ->
              List.iter
                (fun (x', r2, y') ->
                  if
                    (not (Logical.equal x y))
                    && Logical.equal x y' && Logical.equal y x'
                    && (r1 < r2 || (r1 = r2 && not (Logical.equal x' x)))
                  then bump h.h_pingpong (min r1 r2, max r1 r2))
                !productions)
            !productions)
        (Engine.groups ctx))
    queries;
  h

(* ------------------------------------------------------------------ *)
(* Checking one transformation instance                                 *)

let describe_db db =
  Catalog.collections (Db.catalog db)
  |> List.map (fun (c : Catalog.collection) -> Printf.sprintf "%s=%d" c.Catalog.co_name c.Catalog.co_card)
  |> String.concat ", "

let rtol = 1e-6

(* Static side: both expressions must carry the same type (schema,
   scoping, duplicate semantics) and the same estimated cardinality —
   the properties every memo group stores once for all members. *)
let static_check cfg cat inst =
  match (Typing.infer cat inst.i_lhs, Typing.infer cat inst.i_rhs) with
  | Error e, _ -> Error (`Refuted (Printf.sprintf "input side does not typecheck: %s" e))
  | _, Error e -> Error (`Refuted (Printf.sprintf "rule output does not typecheck: %s" e))
  | Ok tl, Ok tr ->
    if not (Typing.equal tl tr) then
      Error
        (`Refuted
          (Printf.sprintf "type not preserved: %s vs %s" (Typing.to_string tl)
             (Typing.to_string tr)))
    else (
      match (Estimator.derive_expr cfg cat inst.i_lhs, Estimator.derive_expr cfg cat inst.i_rhs) with
      | exception Invalid_argument m ->
        Error (`Bounded (Printf.sprintf "cardinality not statically derivable: %s" m))
      | ll, lr ->
        let cl = ll.Lprops.card and cr = lr.Lprops.card in
        if Float.abs (cl -. cr) > rtol *. (1.0 +. Float.abs cl) then
          Error
            (`Bounded (Printf.sprintf "estimated cardinality not preserved: %g vs %g" cl cr))
        else Ok ())

(* Denotational side: same row multiset on every micro-database. *)
let denotational_check dbs inst =
  let rec go variant = function
    | [] -> Ok ()
    | db :: rest ->
      let expected = Interp.rows db inst.i_lhs in
      let actual = Interp.rows db inst.i_rhs in
      if Interp.same_rows expected actual then go (variant + 1) rest
      else
        Error
          { cx_variant = variant;
            cx_db = describe_db db;
            cx_setting = "rewrite instance";
            cx_lhs = Logical.to_string inst.i_lhs;
            cx_rhs = Logical.to_string inst.i_rhs;
            cx_expected = expected;
            cx_actual = actual }
  in
  go 0 dbs

let certify_trule ~cfg ~cat ~dbs h (r : Engine.trule) =
  let name = r.Engine.t_name in
  let instances = List.rev (Option.value ~default:[] (Hashtbl.find_opt h.h_instances name)) in
  let n = List.length instances in
  let checks = n * List.length dbs in
  let status =
    match Hashtbl.find_opt h.h_guard_errors name with
    | Some e -> Static_refuted (Printf.sprintf "incomplete applicability guard, rule raised: %s" e)
    | None ->
      if instances = [] then No_instances
      else begin
        (* counterexamples first: a concrete mismatching database is the
           most actionable verdict *)
        let refuted =
          List.find_map
            (fun i -> match denotational_check dbs i with Ok () -> None | Error cx -> Some cx)
            instances
        in
        match refuted with
        | Some cx -> Refuted cx
        | None ->
          let statics = List.map (static_check cfg cat) instances in
          let first p = List.find_map (function Error e -> p e | Ok () -> None) statics in
          (match first (function `Refuted m -> Some m | _ -> None) with
          | Some m -> Static_refuted m
          | None -> (
            match first (function `Bounded m -> Some m | _ -> None) with
            | Some m -> Bounded_only m
            | None -> Certified))
      end
  in
  { rr_rule = name; rr_kind = Transformation; rr_instances = n; rr_checks = checks; rr_status = status }

(* ------------------------------------------------------------------ *)
(* Physical rules: whole-plan certification                             *)

(* Map each algorithm in a winning plan back to the rule that offers
   it. A cold Assembly is offered both by the mat-assembly
   implementation and the assembly enforcer, so it certifies (or
   refutes) both. *)
let rules_of_alg = function
  | Physical.File_scan _ -> [ "file-scan" ]
  | Physical.Index_scan _ -> [ "collapse-index-scan" ]
  | Physical.Filter _ -> [ "filter" ]
  | Physical.Hash_join _ -> [ "hash-join" ]
  | Physical.Merge_join _ -> [ "merge-join" ]
  | Physical.Pointer_join _ -> [ "pointer-join" ]
  | Physical.Assembly { warm = Some _; _ } -> [ "warm-assembly" ]
  | Physical.Assembly _ -> [ "mat-assembly"; "assembly-enforcer" ]
  | Physical.Alg_project _ -> [ "alg-project" ]
  | Physical.Alg_unnest _ -> [ "alg-unnest" ]
  | Physical.Hash_union | Physical.Hash_intersect | Physical.Hash_difference -> [ "hash-setop" ]
  | Physical.Sort _ -> [ "sort-enforcer" ]

let rec plan_rules (p : Engine.plan) =
  rules_of_alg p.Engine.alg @ List.concat_map plan_rules p.Engine.children

(* Option variants chosen so that every implementation rule and enforcer
   shows up in at least one winning plan over the corpus: the cost model
   is free to prefer one join algorithm on every micro-database, so the
   "force-*" variants disable its competitors. *)
let option_variants base =
  let dis names o = List.fold_left (fun o n -> Options.disable n o) o names in
  [ ("default", base);
    ("warm-start", Options.with_warm_start base);
    ("window-1", Options.with_assembly_window 1 base);
    ("force-merge-join", dis [ "hash-join"; "pointer-join"; "mat-assembly"; "assembly-enforcer" ] base);
    ("force-pointer-join", dis [ "hash-join"; "merge-join"; "mat-assembly"; "assembly-enforcer" ] base);
    ("force-hash-join", dis [ "pointer-join"; "merge-join"; "mat-assembly"; "assembly-enforcer" ] base);
    ("force-assembly", dis [ "hash-join"; "pointer-join"; "merge-join" ] base);
    ( "force-warm-assembly",
      Options.with_warm_start (dis [ "hash-join"; "pointer-join"; "merge-join" ] base) );
    ("force-index-scan", dis [ "file-scan" ] base) ]

(* The sort enforcer only fires when a goal actually requires an order,
   so the physical corpus adds ordered goals on top of the plain ones. *)
let phys_goals queries =
  List.map (fun (n, q) -> (n, q, Physprop.empty)) queries
  @ [ ( "employees-ordered",
        Logical.get ~coll:"Employees" ~binding:"e",
        Physprop.with_order { Physprop.ord_binding = "e"; ord_field = Some "name" } Physprop.empty );
      ( "employees-ordered-oid",
        Logical.get ~coll:"Employees" ~binding:"e",
        Physprop.with_order { Physprop.ord_binding = "e"; ord_field = None } Physprop.empty ) ]

type phys_acc = {
  mutable pa_occurrences : int;
  mutable pa_checks : int;
  mutable pa_failure : counterexample option;
}

let certify_physical ~options ~dbs ~queries () =
  let acc : (string, phys_acc) Hashtbl.t = Hashtbl.create 16 in
  let get_acc rule =
    match Hashtbl.find_opt acc rule with
    | Some a -> a
    | None ->
      let a = { pa_occurrences = 0; pa_checks = 0; pa_failure = None } in
      Hashtbl.add acc rule a;
      a
  in
  let goals = phys_goals queries in
  let variants = option_variants options in
  List.iteri
    (fun variant db ->
      let cat = Db.catalog db in
      (* interpreter answers are per (query, db), not per option variant *)
      let expect = Hashtbl.create 8 in
      let expected_rows qname q =
        match Hashtbl.find_opt expect qname with
        | Some rows -> rows
        | None ->
          let rows = Interp.rows db q in
          Hashtbl.add expect qname rows;
          rows
      in
      List.iter
        (fun (qname, q, required) ->
          List.iter
            (fun (vname, opts) ->
              match (Optimizer.optimize ~options:opts ~required cat q).Optimizer.plan with
              | None -> ()  (* this rule-toggle variant admits no plan here *)
              | Some plan ->
                let rules = List.sort_uniq compare (plan_rules plan) in
                let expected = expected_rows qname q in
                let actual = Executor.run ~verify:true ~config:opts.Options.config db plan in
                let ok = Interp.same_rows expected actual in
                List.iter
                  (fun rule ->
                    let a = get_acc rule in
                    a.pa_occurrences <- a.pa_occurrences + 1;
                    a.pa_checks <- a.pa_checks + 1;
                    if (not ok) && a.pa_failure = None then
                      a.pa_failure <-
                        Some
                          { cx_variant = variant;
                            cx_db = describe_db db;
                            cx_setting = Printf.sprintf "query %s under options %s" qname vname;
                            cx_lhs = Logical.to_string q;
                            cx_rhs = Format.asprintf "%a" Engine.pp_plan plan;
                            cx_expected = expected;
                            cx_actual = actual })
                  rules)
            variants)
        goals)
    dbs;
  List.map
    (fun (name, kind) ->
      match Hashtbl.find_opt acc name with
      | None -> { rr_rule = name; rr_kind = kind; rr_instances = 0; rr_checks = 0; rr_status = No_instances }
      | Some a ->
        { rr_rule = name;
          rr_kind = kind;
          rr_instances = a.pa_occurrences;
          rr_checks = a.pa_checks;
          rr_status =
            (match a.pa_failure with
            | Some cx -> Refuted cx
            | None -> Certified) })
    (List.map (fun n -> (n, Implementation)) Irules.names
    @ List.map (fun n -> (n, Enforcer)) Enforcers.names)

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)

let run ?(options = Options.default) ?(extra_trules = fun _ _ -> []) ?dbs ?(queries = corpus)
    ?(max_instances = 6) ?(physical = true) () =
  let dbs = match dbs with Some dbs -> dbs | None -> Datagen.micro_family () in
  if dbs = [] then invalid_arg "Certify.run: empty micro-database family";
  let cat = Db.catalog (List.hd dbs) in
  let cfg = options.Options.config in
  let queries =
    if options.Options.normalize then List.map (fun (n, q) -> (n, Argtrans.expr q)) queries
    else queries
  in
  let trules = Trules.all cfg cat @ extra_trules cfg cat in
  let h =
    harvest_trules ~cfg ~cat ~disabled:options.Options.disabled ~trules ~max_instances queries
  in
  let logical_reports = List.map (certify_trule ~cfg ~cat ~dbs h) trules in
  let phys_reports = if physical then certify_physical ~options ~dbs ~queries () else [] in
  let reports = logical_reports @ phys_reports in
  let dead =
    List.filter_map
      (fun rr ->
        if rr.rr_instances = 0 && not (List.mem rr.rr_rule options.Options.disabled) then
          Some rr.rr_rule
        else None)
      reports
  in
  let pairs tbl = Hashtbl.fold (fun (a, b) n acc -> (a, b, n) :: acc) tbl [] |> List.sort compare in
  { cert_rules = reports;
    cert_meta = { m_overlaps = pairs h.h_overlaps; m_pingpong = pairs h.h_pingpong; m_dead = dead };
    cert_dbs = List.length dbs;
    cert_queries = List.length queries }

let ok report = List.for_all (fun rr -> not (uncertified rr.rr_status)) report.cert_rules

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)

let status_detail = function
  | Certified -> None
  | Bounded_only m | Static_refuted m -> Some m
  | No_instances -> Some "never exercised by the corpus"
  | Refuted cx -> Some (Printf.sprintf "counterexample on micro-database %d" cx.cx_variant)

let pp_counterexample ppf cx =
  Format.fprintf ppf
    "@[<v 2>counterexample (micro-database %d: %s)@ setting: %s@ lhs: %s@ rhs: %s@ expected: %a@ actual:   %a@]"
    cx.cx_variant cx.cx_db cx.cx_setting cx.cx_lhs cx.cx_rhs Interp.pp_rows
    (Interp.canon_rows cx.cx_expected) Interp.pp_rows (Interp.canon_rows cx.cx_actual)

let pp_rule_report ppf rr =
  Format.fprintf ppf "%-22s %-14s %-14s %4d instance(s), %4d check(s)" rr.rr_rule
    (kind_name rr.rr_kind) (status_name rr.rr_status) rr.rr_instances rr.rr_checks;
  match rr.rr_status with
  | Certified -> ()
  | Refuted cx -> Format.fprintf ppf "@   %a" pp_counterexample cx
  | s -> (
    match status_detail s with
    | Some d -> Format.fprintf ppf "@   %s" d
    | None -> ())

let pp_report ppf r =
  Format.fprintf ppf "@[<v>certified %d rule(s) over %d micro-database(s), %d corpus quer(ies)@ @ "
    (List.length r.cert_rules) r.cert_dbs r.cert_queries;
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_rule_report ppf r.cert_rules;
  Format.fprintf ppf "@ @ meta-analysis:@ ";
  Format.fprintf ppf "  overlapping rules: %s@ "
    (match r.cert_meta.m_overlaps with
    | [] -> "(none)"
    | os ->
      String.concat ", " (List.map (fun (a, b, n) -> Printf.sprintf "%s+%s (%d sites)" a b n) os));
  Format.fprintf ppf "  ping-pong pairs:   %s@ "
    (match r.cert_meta.m_pingpong with
    | [] -> "(none)"
    | ps ->
      String.concat ", " (List.map (fun (a, b, n) -> Printf.sprintf "%s<->%s (%d)" a b n) ps));
  Format.fprintf ppf "  dead rules:        %s@]"
    (match r.cert_meta.m_dead with [] -> "(none)" | ds -> String.concat ", " ds)

let rows_json rows =
  Json.List
    (List.map
       (fun row ->
         Json.Obj (List.map (fun (k, v) -> (k, Json.String (Value.to_string v))) row))
       (Interp.canon_rows rows))

let counterexample_json cx =
  Json.Obj
    [ ("db_variant", Json.Int cx.cx_variant);
      ("db", Json.String cx.cx_db);
      ("setting", Json.String cx.cx_setting);
      ("lhs", Json.String cx.cx_lhs);
      ("rhs", Json.String cx.cx_rhs);
      ("expected", rows_json cx.cx_expected);
      ("actual", rows_json cx.cx_actual) ]

let rule_json rr =
  Json.Obj
    ([ ("rule", Json.String rr.rr_rule);
       ("kind", Json.String (kind_name rr.rr_kind));
       ("status", Json.String (status_name rr.rr_status));
       ("instances", Json.Int rr.rr_instances);
       ("checks", Json.Int rr.rr_checks) ]
    @ (match status_detail rr.rr_status with
      | Some d when (match rr.rr_status with Refuted _ -> false | _ -> true) ->
        [ ("detail", Json.String d) ]
      | _ -> [])
    @ match rr.rr_status with Refuted cx -> [ ("counterexample", counterexample_json cx) ] | _ -> [])

let to_json r =
  Json.Obj
    [ ("ok", Json.Bool (ok r));
      ("micro_databases", Json.Int r.cert_dbs);
      ("corpus_queries", Json.Int r.cert_queries);
      ("rules", Json.List (List.map rule_json r.cert_rules));
      ( "meta",
        Json.Obj
          [ ( "overlaps",
              Json.List
                (List.map
                   (fun (a, b, n) ->
                     Json.Obj
                       [ ("rules", Json.List [ Json.String a; Json.String b ]);
                         ("sites", Json.Int n) ])
                   r.cert_meta.m_overlaps) );
            ( "ping_pong",
              Json.List
                (List.map
                   (fun (a, b, n) ->
                     Json.Obj
                       [ ("rules", Json.List [ Json.String a; Json.String b ]);
                         ("instances", Json.Int n) ])
                   r.cert_meta.m_pingpong) );
            ("dead", Json.List (List.map (fun d -> Json.String d) r.cert_meta.m_dead)) ] ) ]
