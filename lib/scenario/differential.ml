module Value = Oodb_storage.Value
module Catalog = Oodb_catalog.Catalog
module Db = Oodb_exec.Db
module Executor = Oodb_exec.Executor
module Options = Open_oodb.Options
module Opt = Open_oodb.Optimizer
module Physprop = Open_oodb.Physprop
module Engine = Open_oodb.Model.Engine
module Verify = Oodb_verify.Verify
module Plancache = Oodb_plancache.Plancache
module Feedback = Oodb_obs.Feedback
module Profile = Oodb_obs.Profile
module Json = Oodb_util.Json
module Cost = Oodb_cost.Cost
module Ast = Zql.Ast

(* The differential harness: one query, many configurations that must
   not change its result. Every configuration's winner is statically
   verified (plan lint + memo-wide type check) and executed; row
   multisets are compared against the default configuration's. *)

type failure = {
  f_query : string;
  f_variant : string;
  f_detail : string;
  f_zql : string;  (** the query as generated *)
  f_shrunk_zql : string;  (** minimal still-failing simplification *)
}

type report = {
  d_index : int;
  d_queries : int;
  d_checks : int;  (** variant comparisons performed *)
  d_failures : failure list;
}

(* ------------------------------------------------------------------ *)
(* Row canonicalization (multiset compare, independent of delivery
   order — ORDER BY correctness is the sort enforcer's concern and is
   covered by plan lint) *)

let canon_rows rows =
  let canon_row row = List.sort (fun (a, _) (b, _) -> String.compare a b) row in
  rows |> List.map canon_row
  |> List.sort
       (List.compare (fun (k1, v1) (k2, v2) ->
            let c = String.compare k1 k2 in
            if c <> 0 then c else Value.compare v1 v2))

(* ------------------------------------------------------------------ *)
(* Variants *)

type kind =
  | V_options of Options.t
  | V_same_cost of Options.t
      (** a search that changes how fast the winner is found, never
          which winner (pruning off): the winner must cost
          {e exactly} what the default configuration's winner costs, and
          execute to the same rows *)
  | V_cache  (** cold then warm through a fresh plan cache *)
  | V_feedback  (** re-optimize after harvesting one profiled run *)

(* Only rules with overlapping coverage are toggled: disabling e.g.
   [file-scan] would leave groups with no implementation at all. *)
let toggle_candidates =
  [ "join-commute"; "join-assoc"; "collapse-index-scan"; "merge-join"; "pointer-join";
    "mat-to-join" ]

let variants () =
  let base = Options.default in
  [ ("batch-1", V_options (Options.with_batch_size 1 base));
    ("batch-64", V_options (Options.with_batch_size 64 base));
    ("no-pruning", V_same_cost { base with Options.pruning = false });
    ("window-1", V_options (Options.with_assembly_window 1 base));
    ("cache-warm", V_cache);
    ("feedback", V_feedback) ]
  @ List.filter_map
      (fun r ->
        if List.mem r Options.rule_names then Some ("no-" ^ r, V_options (Options.disable r base))
        else None)
      toggle_candidates

let compile cat zql =
  match Zql.Simplify.compile_ordered cat zql with
  | Error e -> Error e
  | Ok c ->
    let required =
      match c.Zql.Simplify.c_order with
      | None -> Physprop.empty
      | Some (ord_binding, ord_field) ->
        { Physprop.empty with Physprop.order = Some { Physprop.ord_binding; ord_field } }
    in
    Ok (c.Zql.Simplify.c_logical, required)

(* Optimize under [options], statically verify the winner and its memo,
   execute, canonicalize; returns the winner's cost with the rows. *)
let run_opt_exn db logical required options =
  let cat = Db.catalog db in
  let outcome = Opt.optimize ~options ~required cat logical in
  match outcome.Opt.plan with
  | None -> Error "optimizer found no plan"
  | Some plan -> (
    match Verify.plan ~required cat plan with
    | Error vs -> Error (Format.asprintf "plan lint: %a" Verify.pp_violations vs)
    | Ok () -> (
      match Verify.types cat outcome.Opt.memo with
      | Error (tv :: _) -> Error (Format.asprintf "memo types: %a" Verify.pp_typ_violation tv)
      | Error [] -> Error "memo types: unknown violation"
      | Ok () ->
        Ok (plan.Engine.cost, canon_rows (Executor.run ~config:options.Options.config db plan))))

(* Optimizer or executor exceptions (e.g. an engine [Type_violation])
   are findings, not harness crashes. *)
let run_opt db logical required options =
  try run_opt_exn db logical required options
  with e -> Error ("exception: " ^ Printexc.to_string e)

let describe_mismatch base rows =
  Printf.sprintf "row multisets differ: baseline %d rows, variant %d rows%s" (List.length base)
    (List.length rows)
    (if List.length base = List.length rows then " (same count, different contents)" else "")

(* One variant check against an already-computed baseline (the default
   configuration's winner cost and rows). Split out so the harness can
   amortize the baseline across all variants of a query (the optimizer
   run dominates, not execution). *)
let check_variant_exn db ~base:(base_cost, base) logical required kind =
  let cat = Db.catalog db in
  (match kind with
      | V_options options -> (
        match run_opt db logical required options with
        | Error e -> Some e
        | Ok (_, rows) -> if rows = base then None else Some (describe_mismatch base rows))
      | V_same_cost options -> (
        (* Cost parity guards the float-level contract of the bound
           ([Cost.slack] on discards, the lexicographic tie-break): row
           parity alone would let a search that silently drops its
           optimum slip through (many plans produce the same rows). *)
        match run_opt db logical required options with
        | Error e -> Some e
        | Ok (cost, rows) ->
          if Cost.compare cost base_cost <> 0 then
            (* full precision: the bugs this catches differ by ulps *)
            Some
              (Printf.sprintf
                 "winner costs io %.17g + cpu %.17g, default winner io %.17g + cpu %.17g"
                 cost.Cost.io cost.Cost.cpu base_cost.Cost.io base_cost.Cost.cpu)
          else if rows = base then None
          else Some (describe_mismatch base rows))
      | V_cache -> (
        let pc = Plancache.create () in
        let exec outcome =
          match outcome.Plancache.plan with
          | None -> Error "plancache found no plan"
          | Some plan -> (
            match Verify.plan ~required cat plan with
            | Error vs -> Error (Format.asprintf "plan lint: %a" Verify.pp_violations vs)
            | Ok () -> Ok (canon_rows (Executor.run db plan)))
        in
        let cold = Plancache.optimize ~required pc cat logical in
        let warm = Plancache.optimize ~required pc cat logical in
        if cold.Plancache.cached then Some "first plan-cache lookup claimed a hit"
        else if not warm.Plancache.cached then Some "second plan-cache lookup missed"
        else
          match exec cold, exec warm with
          | Error e, _ -> Some ("cache-cold: " ^ e)
          | _, Error e -> Some ("cache-warm: " ^ e)
          | Ok r1, Ok r2 ->
            if r1 <> base then Some ("cache-cold: " ^ describe_mismatch base r1)
            else if r2 <> base then Some ("cache-warm: " ^ describe_mismatch base r2)
            else None)
      | V_feedback -> (
        let outcome = Opt.optimize ~required cat logical in
        match outcome.Opt.plan with
        | None -> Some "optimizer found no plan"
        | Some plan ->
          let fb = Feedback.create cat in
          let config = Options.default.Options.config in
          let _rows, _report, node = Profile.run ~config db plan in
          let (_ : int) = Feedback.harvest fb config cat node in
          let options = Feedback.install fb Options.default in
          (match run_opt db logical required options with
          | Error e -> Some ("with feedback: " ^ e)
          | Ok (_, rows) -> if rows = base then None else Some (describe_mismatch base rows))))

let check_variant db ~base logical required kind =
  try check_variant_exn db ~base logical required kind
  with e -> Some ("exception: " ^ Printexc.to_string e)

(* The self-contained predicate the shrinker replays: compile, fresh
   baseline, then the variant check. *)
let variant_failure db kind zql =
  let cat = Db.catalog db in
  match compile cat zql with
  | Error e -> Some ("does not compile: " ^ e)
  | Ok (logical, required) -> (
    match run_opt db logical required Options.default with
    | Error e -> Some ("baseline: " ^ e)
    | Ok base -> check_variant db ~base logical required kind)

(* ------------------------------------------------------------------ *)
(* Shrinking: greedy descent over structural simplifications of the
   failing query, keeping any candidate that still fails the same
   variant. The database is held fixed — minimality is at the query
   level, which is where generated complexity lives. *)

let reconjoin = function
  | [] -> None
  | c :: cs -> Some (List.fold_left (fun a b -> Ast.And (a, b)) c cs)

let shrink_candidates (q : Ast.query) =
  let drop_setops =
    match q.Ast.q_setops with
    | [] -> []
    | branches ->
      { q with Ast.q_setops = [] }
      :: List.mapi (fun i _ -> { q with Ast.q_setops = List.filteri (fun j _ -> j <> i) branches })
           branches
  in
  let drop_order = if q.Ast.q_order <> None then [ { q with Ast.q_order = None } ] else [] in
  let drop_select = if q.Ast.q_select <> [] then [ { q with Ast.q_select = [] } ] else [] in
  let drop_conjuncts =
    match q.Ast.q_where with
    | None -> []
    | Some c ->
      let cs = Ast.conjuncts c in
      List.mapi
        (fun i _ -> { q with Ast.q_where = reconjoin (List.filteri (fun j _ -> j <> i) cs) })
        cs
  in
  drop_setops @ drop_order @ drop_select @ drop_conjuncts

let shrink db kind q =
  let still_fails q' =
    match Ast.to_zql q' with
    | exception Ast.Unprintable _ -> false
    | zql -> variant_failure db kind zql <> None
  in
  let rec go q =
    match List.find_opt still_fails (shrink_candidates q) with
    | Some q' -> go q'
    | None -> q
  in
  Ast.to_zql (go q)

(* ------------------------------------------------------------------ *)

let run (sc : Scenario.t) =
  let db = Scenario.build_db sc in
  let cat = Db.catalog db in
  let vs = variants () in
  let checks = ref 0 in
  let failures = ref [] in
  let fail qc vname detail kind =
    failures :=
      { f_query = qc.Scenario.qc_name;
        f_variant = vname;
        f_detail = detail;
        f_zql = qc.Scenario.qc_zql;
        f_shrunk_zql =
          (match kind with
          | None -> qc.Scenario.qc_zql
          | Some k -> shrink db k qc.Scenario.qc_ast) }
      :: !failures
  in
  List.iter
    (fun (qc : Scenario.query_case) ->
      (* the baseline is compiled, optimized and executed once per
         query; each variant then costs a single optimizer run *)
      incr checks;
      match compile cat qc.Scenario.qc_zql with
      | Error e -> fail qc "baseline" ("does not compile: " ^ e) None
      | Ok (logical, required) -> (
        match run_opt db logical required Options.default with
        | Error e -> fail qc "baseline" e None
        | Ok base ->
          List.iter
            (fun (vname, kind) ->
              incr checks;
              match check_variant db ~base logical required kind with
              | None -> ()
              | Some detail -> fail qc vname detail (Some kind))
            vs))
    sc.Scenario.sc_queries;
  { d_index = sc.Scenario.sc_index;
    d_queries = List.length sc.Scenario.sc_queries;
    d_checks = !checks;
    d_failures = List.rev !failures }

let failure_json f =
  Json.Obj
    [ ("query", Json.String f.f_query);
      ("variant", Json.String f.f_variant);
      ("detail", Json.String f.f_detail);
      ("zql", Json.String f.f_zql);
      ("shrunk_zql", Json.String f.f_shrunk_zql) ]

let report_json r =
  Json.Obj
    [ ("index", Json.Int r.d_index);
      ("queries", Json.Int r.d_queries);
      ("checks", Json.Int r.d_checks);
      ("failures", Json.List (List.map failure_json r.d_failures)) ]
