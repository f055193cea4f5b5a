module Json = Oodb_util.Json
module Engine = Open_oodb.Model.Engine
module Model = Open_oodb.Model
module Optimizer = Open_oodb.Optimizer
module Options = Open_oodb.Options
module Physical = Open_oodb.Physical
module Physprop = Open_oodb.Physprop
module Catalog = Oodb_catalog.Catalog
module Cost = Oodb_cost.Cost
module Vec = Oodb_util.Vec

let available (o : Optimizer.outcome) = Engine.provenance_on o.Optimizer.memo

let disabled_msg =
  "provenance was not recorded; re-optimize with Optimizer.optimize ~provenance:true"

(* ------------------------------------------------------------------ *)
(* Winner lineage: the --why walk                                      *)

type why_step = {
  ws_alg : Physical.t;
  ws_rule : string;  (* implementation rule / enforcer that built the node *)
  ws_group : Engine.group;
  ws_cost : Cost.t;  (* subtree total *)
  ws_local : Cost.t;  (* the node's own (algorithm-local) cost *)
  ws_trules : string list;  (* logical derivation chain, oldest firing first *)
  ws_children : why_step list;
}

let rec winner_walk ctx g ~required =
  match Engine.winner_of ctx g ~required with
  | None -> None
  | Some cr ->
    let children =
      List.filter_map
        (fun (cg, cp) -> winner_walk ctx cg ~required:cp)
        cr.Engine.cr_inputs
    in
    let child_cost = Cost.sum (List.map (fun c -> c.ws_cost) children) in
    let total =
      match cr.Engine.cr_disposition with
      | Engine.Kept c -> c
      | _ -> Cost.add cr.Engine.cr_local_cost child_cost
    in
    Some
      { ws_alg = cr.Engine.cr_alg;
        ws_rule = cr.Engine.cr_rule;
        ws_group = cr.Engine.cr_group;
        ws_cost = total;
        ws_local = cr.Engine.cr_local_cost;
        ws_trules =
          (match cr.Engine.cr_mexpr with
          | None -> []
          | Some mid -> Engine.rule_chain ctx mid);
        ws_children = children }

let why (o : Optimizer.outcome) ~required =
  if not (available o) then Error disabled_msg
  else
    match winner_walk o.Optimizer.memo o.Optimizer.root ~required with
    | Some s -> Ok s
    | None -> Error "no winner recorded for the root goal (no plan found?)"

(* Transformation rules in the winner's transitive derivation: the union
   of every winning node's logical rule chain, deduped and sorted. The
   lineage-replay invariant re-optimizes with only these trules enabled
   and expects a bit-identical winner cost. *)
let replay_rules (o : Optimizer.outcome) ~required =
  match why o ~required with
  | Error _ -> []
  | Ok step ->
    let rec collect acc s =
      let acc = List.fold_left (fun acc r -> r :: acc) acc s.ws_trules in
      List.fold_left collect acc s.ws_children
    in
    List.sort_uniq String.compare (collect [] step)

(* Per-node estimate annotations, aligned with the why tree (the winner
   walk reproduces the chosen plan's shape). *)
let est_annotations ?config cat (o : Optimizer.outcome) =
  match o.Optimizer.plan with
  | None -> None
  | Some plan -> Some (Cardest.plan ?config cat plan)

let pp_why ?est ppf step =
  (* Bottom-up: post-order numbering, leaves first, so each step's
     inputs are already on the page when the step is printed. *)
  let n = ref 0 in
  let buf = Buffer.create 256 in
  let bppf = Format.formatter_of_buffer buf in
  let rec walk (est : Cardest.t option) s =
    let child_ests =
      match est with
      | Some e when List.length e.Cardest.children = List.length s.ws_children ->
        List.map Option.some e.Cardest.children
      | _ -> List.map (fun _ -> None) s.ws_children
    in
    let child_nums = List.map2 walk child_ests s.ws_children in
    incr n;
    let me = !n in
    Format.fprintf bppf "step %d: %s@." me (Physical.to_string s.ws_alg);
    Format.fprintf bppf "  via %s on group %d" s.ws_rule s.ws_group;
    (match child_nums with
    | [] -> ()
    | nums ->
      Format.fprintf bppf " over %s"
        (String.concat ", " (List.map (fun c -> Printf.sprintf "step %d" c) nums)));
    Format.fprintf bppf "@.";
    (match est with
    | Some e ->
      Format.fprintf bppf "  est rows %.0f (%s)@." e.Cardest.card
        (if e.Cardest.fed then "feedback" else "model")
    | None -> ());
    if s.ws_trules <> [] then
      Format.fprintf bppf "  derived by: %s@." (String.concat " -> " s.ws_trules);
    Format.fprintf bppf "  cost %a (node %a)@." Cost.pp s.ws_cost Cost.pp s.ws_local;
    me
  in
  ignore (walk est step);
  Format.pp_print_flush bppf ();
  Format.fprintf ppf "%s@.winner cost: %a@." (Buffer.contents buf) Cost.pp step.ws_cost

let cost_json (c : Cost.t) =
  Json.Obj
    [ ("io", Json.float c.Cost.io);
      ("cpu", Json.float c.Cost.cpu);
      ("total", Json.float (Cost.total c)) ]

(* ------------------------------------------------------------------ *)
(* Why-not: counterfactual classification                              *)

type shape =
  | Force_index of string  (* index name; "" matches any index scan *)
  | Force_join of string  (* "hash" | "merge" | "pointer" *)
  | Force_scan of string  (* collection name; "" matches any file scan *)
  | Force_alg of string  (* any algorithm by label, e.g. "sort" *)

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

let shape_to_string = function
  | Force_index "" -> "index-scan"
  | Force_index name -> Printf.sprintf "index-scan(%s)" name
  | Force_join kind -> kind ^ "-join"
  | Force_scan "" -> "file-scan"
  | Force_scan coll -> Printf.sprintf "file-scan(%s)" coll
  | Force_alg label -> label

let shape_matches shape (alg : Physical.t) =
  match shape, alg with
  | Force_index name, Physical.Index_scan { index; _ } ->
    name = "" || String.equal index name
  | Force_join "hash", Physical.Hash_join _ -> true
  | Force_join "merge", Physical.Merge_join _ -> true
  | Force_join "pointer", Physical.Pointer_join _ -> true
  | Force_scan coll, Physical.File_scan { coll = c; _ } ->
    coll = "" || String.equal c coll
  | Force_alg label, alg -> String.equal (alg_label alg) label
  | _ -> false

(* The implementation rules (or enforcers) that could produce the shape —
   what a never-derived verdict names as disabled or missing. *)
let producing_rules = function
  | Force_index _ -> [ "collapse-index-scan" ]
  | Force_join "hash" -> [ "hash-join" ]
  | Force_join "merge" -> [ "merge-join" ]
  | Force_join "pointer" -> [ "pointer-join" ]
  | Force_join _ -> []
  | Force_scan _ -> [ "file-scan" ]
  | Force_alg "file-scan" -> [ "file-scan" ]
  | Force_alg "index-scan" -> [ "collapse-index-scan" ]
  | Force_alg "filter" -> [ "filter" ]
  | Force_alg "hash-join" -> [ "hash-join" ]
  | Force_alg "merge-join" -> [ "merge-join" ]
  | Force_alg "pointer-join" -> [ "pointer-join" ]
  | Force_alg "assembly" -> [ "mat-assembly"; "warm-assembly"; "assembly-enforcer" ]
  | Force_alg "project" -> [ "alg-project" ]
  | Force_alg "unnest" -> [ "alg-unnest" ]
  | Force_alg ("union" | "intersect" | "difference") -> [ "hash-setop" ]
  | Force_alg "sort" -> [ "sort-enforcer" ]
  | Force_alg _ -> []

(* A shape to ask about for an alternative plan's distinguishing
   operator — the effectiveness report uses this when a sampled plan
   beats the chosen one. *)
let shape_of_alg = function
  | Physical.Index_scan { index; _ } -> Force_index index
  | Physical.Hash_join _ -> Force_join "hash"
  | Physical.Merge_join _ -> Force_join "merge"
  | Physical.Pointer_join _ -> Force_join "pointer"
  | Physical.File_scan { coll; _ } -> Force_scan coll
  | alg -> Force_alg (alg_label alg)

type verdict =
  | Chosen of { cost : Cost.t }
  | Never_derived of { rules : string list; disabled : string list }
  | Derived_but_lost of {
      group : Engine.group;
      required : Physprop.t;
      alt_rule : string;
      alt_alg : Physical.t;
      alt_cost : Cost.t;  (* full plan cost of the losing alternative at its goal *)
      winner_rule : string;
      winner_alg : Physical.t;
      winner_cost : Cost.t;
      gap : Cost.delta;
    }
  | Pruned_away of {
      group : Engine.group;
      rule : string;
      alg : Physical.t;
      local_cost : Cost.t;
      limit : Cost.t;  (* the bound in force at the decision point *)
      margin : Cost.t;  (* amount over the bound (before slack) *)
      mode : string;  (* "candidate" | "abandoned" *)
    }

type classification = { cl_shape : shape; cl_verdict : verdict; cl_dropped : int }

let rec plan_algs (p : Engine.plan) =
  p.Engine.alg :: List.concat_map plan_algs p.Engine.children

let kept_cost (cr : Engine.cand_record) =
  match cr.Engine.cr_disposition with Engine.Kept c -> Some c | _ -> None

(* The log-evidence pass: classify from this outcome's candidate log
   alone. A completed (Kept) match that lost its own goal is the direct
   derived-but-lost case; a match that *won* its goal died further up,
   so the walk follows its consumers (candidates whose inputs name the
   match's goal) until it finds where that subtree lost or was pruned. *)
let classify_verdict options (o : Optimizer.outcome) shape =
  let ctx = o.Optimizer.memo in
  let chosen =
    match o.Optimizer.plan with
    | Some p when List.exists (shape_matches shape) (plan_algs p) ->
      Some (Chosen { cost = p.Engine.cost })
    | _ -> None
  in
  match chosen with
  | Some v -> v
  | None -> (
    let records = Engine.cand_records ctx in
    let matching = List.filter (fun cr -> shape_matches shape cr.Engine.cr_alg) records in
    match matching with
    | [] ->
      let rules = producing_rules shape in
      Never_derived
        { rules;
          disabled = List.filter (fun r -> List.mem r options.Options.disabled) rules }
    | _ -> (
      (* A goal whose winner has the shape was won by the shape, whichever
         of its matches won it. *)
      let shape_won (cr : Engine.cand_record) (w : Engine.cand_record) =
        w.Engine.cr_index = cr.Engine.cr_index || shape_matches shape w.Engine.cr_alg
      in
      let lost_of (cr : Engine.cand_record) =
        match kept_cost cr with
        | None -> None
        | Some alt_cost -> (
          match
            Engine.winner_of ctx cr.Engine.cr_group ~required:cr.Engine.cr_required
          with
          | Some w when not (shape_won cr w) -> (
            match kept_cost w with
            | Some wcost -> Some (cr, alt_cost, w, wcost)
            | None -> None)
          | _ -> None)
      in
      let won (cr : Engine.cand_record) =
        kept_cost cr <> None
        &&
        match
          Engine.winner_of ctx cr.Engine.cr_group ~required:cr.Engine.cr_required
        with
        | Some w -> shape_won cr w
        | None -> false
      in
      let pruned_of (cr : Engine.cand_record) =
        match cr.Engine.cr_disposition with
        | Engine.Pruned_candidate { limit; margin } -> Some (cr, limit, margin)
        | Engine.Kept _ | Engine.Abandoned -> None
      in
      (* Upward walk from goals the shape *won*: the shape itself
         survived its own competition, so its death is an ancestor's —
         a consumer that carried this subtree and lost or was pruned. *)
      let walk_lost, walk_pruned =
        let visited = Hashtbl.create 32 in
        let lost = ref [] in
        let pruned = ref [] in
        let rec walk (cr : Engine.cand_record) =
          if not (Hashtbl.mem visited cr.Engine.cr_index) then begin
            Hashtbl.add visited cr.Engine.cr_index ();
            let consumers =
              List.filter
                (fun c ->
                  List.exists
                    (fun (g, req) ->
                      g = cr.Engine.cr_group && req = cr.Engine.cr_required)
                    c.Engine.cr_inputs)
                records
            in
            List.iter
              (fun c ->
                match lost_of c with
                | Some l -> lost := l :: !lost
                | None ->
                  if won c then walk c
                  else
                    match pruned_of c with
                    | Some p -> pruned := p :: !pruned
                    | None -> ())
              consumers
          end
        in
        List.iter (fun cr -> if won cr then walk cr) matching;
        (!lost, !pruned)
      in
      let direct_lost = List.filter_map lost_of matching in
      let pick_lost = function
        | [] -> None
        | hd :: tl ->
          (* closest call: smallest total-cost gap to its goal winner *)
          let cr, alt_cost, w, wcost =
            List.fold_left
              (fun (((_, ac, _, wc) : _ * Cost.t * _ * Cost.t) as best)
                   ((_, ac', _, wc') as cand) ->
                if
                  Float.compare
                    (Cost.total ac' -. Cost.total wc')
                    (Cost.total ac -. Cost.total wc)
                  < 0
                then cand
                else best)
              hd tl
          in
          Some
            (Derived_but_lost
               { group = cr.Engine.cr_group;
                 required = cr.Engine.cr_required;
                 alt_rule = cr.Engine.cr_rule;
                 alt_alg = cr.Engine.cr_alg;
                 alt_cost;
                 winner_rule = w.Engine.cr_rule;
                 winner_alg = w.Engine.cr_alg;
                 winner_cost = wcost;
                 gap = Cost.delta ~winner:wcost ~loser:alt_cost })
      in
      match pick_lost direct_lost with
      | Some v -> v
      | None -> (
        match pick_lost walk_lost with
        | Some v -> v
        | None -> (
          (* Never completed on any surviving path: replay the tightest
             prune, whether it hit the shape itself or the subtree
             carrying it. *)
          match List.filter_map pruned_of matching @ walk_pruned with
          | _ :: _ as pruned ->
            let cr, limit, margin =
              List.fold_left
                (fun ((_, _, m) as best) ((_, _, m') as cand) ->
                  if Cost.compare m' m < 0 then cand else best)
                (List.hd pruned) (List.tl pruned)
            in
            Pruned_away
              { group = cr.Engine.cr_group;
                rule = cr.Engine.cr_rule;
                alg = cr.Engine.cr_alg;
                local_cost = cr.Engine.cr_local_cost;
                limit;
                margin;
                mode = "candidate" }
          | [] ->
            let cr = List.hd matching in
            Pruned_away
              { group = cr.Engine.cr_group;
                rule = cr.Engine.cr_rule;
                alg = cr.Engine.cr_alg;
                local_cost = cr.Engine.cr_local_cost;
                limit = Cost.infinite;
                margin = Cost.zero;
                mode = "abandoned" }))))

let classify ?(options = Options.default) ?replay (o : Optimizer.outcome) shape =
  if not (available o) then Error disabled_msg
  else begin
    let verdict = classify_verdict options o shape in
    let dropped = Engine.provenance_dropped o.Optimizer.memo in
    (* Escalation: under branch-and-bound, a prune (or an unexplored
       subgoal that makes the shape look never-derived) is just a
       short-circuited cost comparison — the bound is admissible, so
       re-running without pruning completes every alternative and turns
       the verdict into a true derived-but-lost gap. *)
    let verdict, dropped =
      match verdict, replay with
      | (Pruned_away _ | Never_derived { disabled = []; rules = _ :: _ }), Some replay
        when options.Options.pruning -> (
        let options' = { options with Options.pruning = false } in
        let o' = replay options' in
        if not (available o') then (verdict, dropped)
        else
          match classify_verdict options' o' shape with
          | Derived_but_lost _ as v' ->
            (v', max dropped (Engine.provenance_dropped o'.Optimizer.memo))
          | _ -> (verdict, dropped))
      | _ -> (verdict, dropped)
    in
    Ok { cl_shape = shape; cl_verdict = verdict; cl_dropped = dropped }
  end

let verdict_label = function
  | Chosen _ -> "chosen"
  | Never_derived _ -> "never-derived"
  | Derived_but_lost _ -> "derived-but-lost"
  | Pruned_away _ -> "pruned"

let pp_classification ppf c =
  let shape = shape_to_string c.cl_shape in
  (match c.cl_verdict with
  | Chosen { cost } ->
    Format.fprintf ppf "%s: chosen — the winning plan already uses it (cost %a)@." shape
      Cost.pp cost
  | Never_derived { rules; disabled } ->
    Format.fprintf ppf "%s: never derived — no candidate with this shape was ever costed.@."
      shape;
    (match disabled with
    | _ :: _ ->
      Format.fprintf ppf "  producing rule%s disabled: %s@."
        (if List.length disabled > 1 then "s" else "")
        (String.concat ", " disabled)
    | [] ->
      (match rules with
      | [] -> Format.fprintf ppf "  no known rule produces this shape@."
      | rs ->
        Format.fprintf ppf
          "  producing rule%s (%s) enabled but never fired for this query — the shape \
           does not apply@."
          (if List.length rs > 1 then "s" else "")
          (String.concat ", " rs)))
  | Derived_but_lost d ->
    Format.fprintf ppf "%s: derived but lost on cost at group %d.@." shape d.group;
    Format.fprintf ppf "  alternative%s: %s via %s, cost %a@."
      (if shape_matches c.cl_shape d.alt_alg then ""
       else " (subtree carrying the shape)")
      (Physical.to_string d.alt_alg) d.alt_rule Cost.pp d.alt_cost;
    Format.fprintf ppf "  winner:      %s via %s, cost %a@."
      (Physical.to_string d.winner_alg) d.winner_rule Cost.pp d.winner_cost;
    Format.fprintf ppf "  gap:         %a@." Cost.pp_delta d.gap
  | Pruned_away p ->
    (match p.mode with
    | "abandoned" ->
      Format.fprintf ppf
        "%s: abandoned — derived (via %s at group %d, local cost %a) but never \
         completed: a child goal found no plan within the bound@."
        shape p.rule p.group Cost.pp p.local_cost
    | mode ->
      Format.fprintf ppf "%s: pruned (%s) by the branch-and-bound limit at group %d.@."
        shape mode p.group;
      Format.fprintf ppf "  candidate: %s via %s, local cost %a@."
        (Physical.to_string p.alg) p.rule Cost.pp p.local_cost;
      Format.fprintf ppf "  bound:     %a (slack %a)@." Cost.pp p.limit Cost.pp Cost.slack;
      Format.fprintf ppf "  margin:    %a over the bound@." Cost.pp p.margin));
  if c.cl_dropped > 0 then
    Format.fprintf ppf
      "WARNING: %d candidate-log rows were dropped at the provenance cap; this \
       classification may be incomplete@."
      c.cl_dropped

let classification_json c =
  let verdict_fields =
    match c.cl_verdict with
    | Chosen { cost } -> [ ("cost", cost_json cost) ]
    | Never_derived { rules; disabled } ->
      [ ("rules", Json.List (List.map (fun r -> Json.String r) rules));
        ("disabled", Json.List (List.map (fun r -> Json.String r) disabled)) ]
    | Derived_but_lost d ->
      [ ("group", Json.Int d.group);
        ("required", Json.String (Format.asprintf "%a" Physprop.pp d.required));
        ("alt_rule", Json.String d.alt_rule);
        ("alt_alg", Json.String (Physical.to_string d.alt_alg));
        ("alt_cost", cost_json d.alt_cost);
        ("winner_rule", Json.String d.winner_rule);
        ("winner_alg", Json.String (Physical.to_string d.winner_alg));
        ("winner_cost", cost_json d.winner_cost);
        ( "gap",
          Json.Obj
            [ ("io", Json.float d.gap.Cost.d_io);
              ("cpu", Json.float d.gap.Cost.d_cpu);
              ("total", Json.float d.gap.Cost.d_total);
              ("ratio", Json.float d.gap.Cost.d_ratio) ] ) ]
    | Pruned_away p ->
      [ ("group", Json.Int p.group);
        ("rule", Json.String p.rule);
        ("alg", Json.String (Physical.to_string p.alg));
        ("local_cost", cost_json p.local_cost);
        ("limit", cost_json p.limit);
        ("margin", cost_json p.margin);
        ("slack", cost_json Cost.slack);
        ("mode", Json.String p.mode) ]
  in
  Json.Obj
    [ ("shape", Json.String (shape_to_string c.cl_shape));
      ("verdict", Json.String (verdict_label c.cl_verdict));
      ("detail", Json.Obj verdict_fields);
      ("prov_dropped", Json.Int c.cl_dropped) ]

(* ------------------------------------------------------------------ *)
(* Memo export                                                         *)

let memo_schema_version = 1

let winner_path ctx root ~required =
  (* candidate-log indexes along the winner's derivation walk, root
     first; the walk is tree-shaped so no cycle guard is needed *)
  let acc = ref [] in
  let rec go g required =
    match Engine.winner_of ctx g ~required with
    | None -> ()
    | Some cr ->
      acc := cr.Engine.cr_index :: !acc;
      List.iter (fun (cg, cp) -> go cg cp) cr.Engine.cr_inputs
  in
  go root required;
  List.rev !acc

let disposition_json = function
  | Engine.Kept c -> Json.Obj [ ("kept", cost_json c) ]
  | Engine.Pruned_candidate { limit; margin } ->
    Json.Obj
      [ ("pruned_candidate", Json.Obj [ ("limit", cost_json limit); ("margin", cost_json margin) ])
      ]
  | Engine.Abandoned -> Json.String "abandoned"

let mexpr_id_json mid = Json.String (Format.asprintf "%a" Volcano.Id.pp mid)

let lineage_json (l : Engine.lineage) =
  Json.Obj
    [ ("id", mexpr_id_json l.Engine.lin_id);
      ("group", Json.Int l.Engine.lin_group);
      ("op", Json.String (Format.asprintf "%a" Model.M.Op.pp l.Engine.lin_op));
      ("inputs", Json.List (List.map (fun g -> Json.Int g) l.Engine.lin_inputs));
      ( "rule",
        match l.Engine.lin_rule with None -> Json.Null | Some r -> Json.String r );
      ( "parent",
        match l.Engine.lin_parent with None -> Json.Null | Some p -> mexpr_id_json p );
      ("seq", Json.Int l.Engine.lin_seq);
      ("alive", Json.Bool l.Engine.lin_alive) ]

let cand_json (cr : Engine.cand_record) =
  Json.Obj
    [ ("index", Json.Int cr.Engine.cr_index);
      ("seq", Json.Int cr.Engine.cr_seq);
      ("group", Json.Int cr.Engine.cr_group);
      ("required", Json.String (Format.asprintf "%a" Physprop.pp cr.Engine.cr_required));
      ("rule", Json.String cr.Engine.cr_rule);
      ( "mexpr",
        match cr.Engine.cr_mexpr with None -> Json.Null | Some m -> mexpr_id_json m );
      ("alg", Json.String (Physical.to_string cr.Engine.cr_alg));
      ("local_cost", cost_json cr.Engine.cr_local_cost);
      ( "inputs",
        Json.List
          (List.map
             (fun (g, p) ->
               Json.Obj
                 [ ("group", Json.Int g);
                   ("required", Json.String (Format.asprintf "%a" Physprop.pp p)) ])
             cr.Engine.cr_inputs) );
      ("disposition", disposition_json cr.Engine.cr_disposition) ]

let memo_json (o : Optimizer.outcome) ~required =
  let ctx = o.Optimizer.memo in
  let groups =
    List.map
      (fun g ->
        Json.Obj
          [ ("id", Json.Int g);
            ("lprop", Json.String (Format.asprintf "%a" Oodb_cost.Lprops.pp
                                     (Engine.group_lprop ctx g))) ])
      (Engine.groups ctx)
  in
  Json.Obj
    [ ("schema_version", Json.Int memo_schema_version);
      ("root", Json.Int o.Optimizer.root);
      ("required", Json.String (Format.asprintf "%a" Physprop.pp required));
      ("provenance", Json.Bool (available o));
      ("prov_dropped", Json.Int (Engine.provenance_dropped ctx));
      ("groups", Json.List groups);
      ("mexprs", Json.List (List.map lineage_json (Engine.lineages ctx)));
      ("candidates", Json.List (List.map cand_json (Engine.cand_records ctx)));
      ( "winner_path",
        Json.List
          (List.map
             (fun i -> Json.Int i)
             (winner_path ctx o.Optimizer.root ~required)) ) ]

(* Graphviz DOT rendering of the same DAG: groups as boxes, live mexprs
   as ellipses, input edges mexpr->group, lineage edges parent->child
   (dashed, labeled with the producing rule). The winner's mexprs and
   groups are bold red; mexprs whose every candidate-log row was pruned
   (and none kept) are dashed. *)
let dot_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let truncate n s = if String.length s <= n then s else String.sub s 0 (n - 1) ^ "…"

let memo_dot (o : Optimizer.outcome) ~required =
  let ctx = o.Optimizer.memo in
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let cands = Engine.cand_records ctx in
  let path = winner_path ctx o.Optimizer.root ~required in
  let winner_groups = Hashtbl.create 16 and winner_mexprs = Hashtbl.create 16 in
  List.iter
    (fun i ->
      match Engine.cand_record ctx i with
      | None -> ()
      | Some cr ->
        Hashtbl.replace winner_groups cr.Engine.cr_group ();
        (match cr.Engine.cr_mexpr with
        | Some m -> Hashtbl.replace winner_mexprs m ()
        | None -> ()))
    path;
  (* per-mexpr disposition summary: pruned-only mexprs render dashed *)
  let kept = Hashtbl.create 64 and pruned = Hashtbl.create 64 in
  List.iter
    (fun (cr : Engine.cand_record) ->
      match cr.Engine.cr_mexpr with
      | None -> ()
      | Some m -> (
        match cr.Engine.cr_disposition with
        | Engine.Kept _ -> Hashtbl.replace kept m ()
        | Engine.Pruned_candidate _ -> Hashtbl.replace pruned m ()
        | Engine.Abandoned -> ()))
    cands;
  pr "digraph memo {\n";
  pr "  rankdir=BT;\n";
  pr "  node [fontsize=10];\n";
  List.iter
    (fun g ->
      let win = Hashtbl.mem winner_groups g in
      pr "  g%d [shape=box label=\"g%d\"%s];\n" g g
        (if win then " color=red penwidth=2" else ""))
    (Engine.groups ctx);
  List.iter
    (fun (l : Engine.lineage) ->
      if l.Engine.lin_alive then begin
        let idx = Volcano.Id.to_idx l.Engine.lin_id in
        let label =
          dot_escape
            (truncate 48 (Format.asprintf "m%d %a" idx Model.M.Op.pp l.Engine.lin_op))
        in
        let style =
          if Hashtbl.mem winner_mexprs l.Engine.lin_id then " color=red penwidth=2"
          else if
            Hashtbl.mem pruned l.Engine.lin_id && not (Hashtbl.mem kept l.Engine.lin_id)
          then " style=dashed"
          else ""
        in
        pr "  m%d [shape=ellipse label=\"%s\"%s];\n" idx label style;
        pr "  m%d -> g%d [arrowhead=none];\n" idx l.Engine.lin_group;
        List.iter (fun g -> pr "  g%d -> m%d [style=dotted];\n" g idx) l.Engine.lin_inputs;
        match l.Engine.lin_parent, l.Engine.lin_rule with
        | Some parent, Some rule ->
          pr "  m%d -> m%d [style=dashed color=blue label=\"%s\"];\n"
            (Volcano.Id.to_idx parent) idx (dot_escape rule)
        | _ -> ()
      end)
    (Engine.lineages ctx);
  pr "}\n";
  Buffer.contents buf
