module Json = Oodb_util.Json
module Engine = Open_oodb.Model.Engine
module Physical = Open_oodb.Physical
module Physprop = Open_oodb.Physprop
module Logical = Oodb_algebra.Logical
module Cost = Oodb_cost.Cost

type group_cell = {
  mutable c_mexprs : int;
  mutable c_trules_fired : int;
  mutable c_candidates : int;
  mutable c_prunes : int;
  mutable c_enforcer_inserts : int;
  mutable c_memo_hits : int;
}

type totals = {
  groups_created : int;
  mexprs_added : int;
  merges : int;
  trules_tried : int;
  trules_fired : int;
  irules_tried : int;
  candidates : int;
  prunes : int;
  enforcers_tried : int;
  enforcer_offers : int;
  enforcer_inserts : int;
  memo_hits : int;
}

type t = {
  ring : Engine.event Ring.t;
  groups : (int, group_cell) Hashtbl.t;
  mutable totals : totals;
}

let zero_totals =
  { groups_created = 0;
    mexprs_added = 0;
    merges = 0;
    trules_tried = 0;
    trules_fired = 0;
    irules_tried = 0;
    candidates = 0;
    prunes = 0;
    enforcers_tried = 0;
    enforcer_offers = 0;
    enforcer_inserts = 0;
    memo_hits = 0 }

let create ?(capacity = 4096) () =
  { ring = Ring.create capacity; groups = Hashtbl.create 64; totals = zero_totals }

let group_cell t g =
  match Hashtbl.find_opt t.groups g with
  | Some c -> c
  | None ->
    let c =
      { c_mexprs = 0;
        c_trules_fired = 0;
        c_candidates = 0;
        c_prunes = 0;
        c_enforcer_inserts = 0;
        c_memo_hits = 0 }
    in
    Hashtbl.add t.groups g c;
    c

let aggregate t (e : Engine.event) =
  let tot = t.totals in
  match e with
  | Group_created { group } ->
    ignore (group_cell t group);
    t.totals <- { tot with groups_created = tot.groups_created + 1 }
  | Mexpr_added { group; _ } ->
    let c = group_cell t group in
    c.c_mexprs <- c.c_mexprs + 1;
    t.totals <- { tot with mexprs_added = tot.mexprs_added + 1 }
  | Groups_merged _ -> t.totals <- { tot with merges = tot.merges + 1 }
  | Trule_tried _ -> t.totals <- { tot with trules_tried = tot.trules_tried + 1 }
  | Trule_fired { group; _ } ->
    let c = group_cell t group in
    c.c_trules_fired <- c.c_trules_fired + 1;
    t.totals <- { tot with trules_fired = tot.trules_fired + 1 }
  | Irule_tried _ -> t.totals <- { tot with irules_tried = tot.irules_tried + 1 }
  | Candidate_costed { group; _ } ->
    let c = group_cell t group in
    c.c_candidates <- c.c_candidates + 1;
    t.totals <- { tot with candidates = tot.candidates + 1 }
  | Pruned { group; _ } ->
    let c = group_cell t group in
    c.c_prunes <- c.c_prunes + 1;
    t.totals <- { tot with prunes = tot.prunes + 1 }
  | Enforcer_tried _ -> t.totals <- { tot with enforcers_tried = tot.enforcers_tried + 1 }
  | Enforcer_offered _ -> t.totals <- { tot with enforcer_offers = tot.enforcer_offers + 1 }
  | Enforcer_inserted { group; _ } ->
    let c = group_cell t group in
    c.c_enforcer_inserts <- c.c_enforcer_inserts + 1;
    t.totals <- { tot with enforcer_inserts = tot.enforcer_inserts + 1 }
  | Phys_memo_hit { group; _ } ->
    let c = group_cell t group in
    c.c_memo_hits <- c.c_memo_hits + 1;
    t.totals <- { tot with memo_hits = tot.memo_hits + 1 }

let sink t e =
  (* Aggregates first: they must stay exact even after the ring wraps. *)
  aggregate t e;
  Ring.push t.ring e

let per_group t =
  Hashtbl.fold (fun g c acc -> (g, c) :: acc) t.groups []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let totals t = t.totals

let seen t = Ring.seen t.ring

let dropped t = Ring.dropped t.ring

let events t = Ring.to_list t.ring

let pp_event ppf (e : Engine.event) =
  match e with
  | Group_created { group } -> Format.fprintf ppf "group %d created" group
  | Mexpr_added { group; op } ->
    Format.fprintf ppf "group %d += %a" group Logical.pp_op op
  | Groups_merged { winner; loser } ->
    Format.fprintf ppf "merge: group %d absorbed into group %d" loser winner
  | Trule_tried { rule; group } ->
    Format.fprintf ppf "trule %s tried on group %d" rule group
  | Trule_fired { rule; group } ->
    Format.fprintf ppf "trule %s fired on group %d" rule group
  | Irule_tried { rule; group } ->
    Format.fprintf ppf "irule %s tried on group %d" rule group
  | Candidate_costed { rule; group; alg; cost } ->
    Format.fprintf ppf "irule %s: costed %a for group %d at %a" rule Physical.pp
      alg group Cost.pp cost
  | Pruned { group; alg; cost; limit } ->
    Format.fprintf ppf "pruned %a in group %d: %a > limit %a" Physical.pp alg
      group Cost.pp cost Cost.pp limit
  | Enforcer_tried { rule; group } ->
    Format.fprintf ppf "enforcer %s tried on group %d" rule group
  | Enforcer_offered { rule; group; alg; cost } ->
    Format.fprintf ppf "enforcer %s: offered %a for group %d at %a" rule
      Physical.pp alg group Cost.pp cost
  | Enforcer_inserted { group; alg } ->
    Format.fprintf ppf "enforcer inserted %a above group %d" Physical.pp alg
      group
  | Phys_memo_hit { group; required } ->
    Format.fprintf ppf "memo hit: (group %d, %a)" group Physprop.pp required

let pp_timeline ?limit ?(prov_dropped = 0) ppf t =
  (* Lead with the drop count: a truncated timeline silently read as
     complete is worse than no timeline. Aggregates stay exact anyway. *)
  if dropped t > 0 then
    Format.fprintf ppf
      "WARNING: %d of %d events dropped (ring capacity exceeded); timeline is a \
       suffix, aggregates remain exact@."
      (dropped t) (seen t);
  if prov_dropped > 0 then
    Format.fprintf ppf
      "WARNING: %d provenance candidate-log rows dropped (cap exceeded); lineage and \
       explanations are incomplete@."
      prov_dropped;
  let evs = events t in
  let retained = List.length evs in
  let evs, shown =
    match limit with
    | Some n when n < retained ->
      let rec drop k = function xs when k <= 0 -> xs | _ :: tl -> drop (k - 1) tl | [] -> [] in
      (drop (retained - n) evs, n)
    | _ -> (evs, retained)
  in
  let hidden = retained - shown in
  if hidden > 0 then Format.fprintf ppf "... %d earlier events not shown@." hidden;
  List.iter (fun (seq, e) -> Format.fprintf ppf "%6d  %a@." seq pp_event e) evs

let pp_rules ppf rules =
  Format.fprintf ppf "%-30s %6s %6s@." "rule" "tried" "fired";
  List.iter
    (fun (name, tried, fired) ->
      Format.fprintf ppf "%-30s %6d %6d@." name tried fired)
    rules

let pp_groups ppf t =
  Format.fprintf ppf "%5s %7s %7s %7s %7s %9s %9s@." "group" "mexprs" "tfired" "cands"
    "prunes" "enforced" "memohits";
  List.iter
    (fun (g, c) ->
      Format.fprintf ppf "%5d %7d %7d %7d %7d %9d %9d@." g c.c_mexprs c.c_trules_fired
        c.c_candidates c.c_prunes c.c_enforcer_inserts c.c_memo_hits)
    (per_group t)

let pp_summary ppf t =
  let x = t.totals in
  Format.fprintf ppf
    "groups %d, mexprs %d, merges %d; trules %d/%d fired, irules %d tried / %d \
     candidates, %d pruned; enforcers %d tried / %d offered / %d inserted; %d \
     memo hits; %d events (%d dropped)@."
    x.groups_created x.mexprs_added x.merges x.trules_fired x.trules_tried
    x.irules_tried x.candidates x.prunes x.enforcers_tried x.enforcer_offers x.enforcer_inserts x.memo_hits (seen t) (dropped t)

let cost_json (c : Cost.t) =
  Json.Obj
    [ ("io", Json.float c.Cost.io);
      ("cpu", Json.float c.Cost.cpu);
      ("total", Json.float (Cost.total c)) ]

let alg_json alg = Json.String (Format.asprintf "%a" Physical.pp alg)

let event_json (e : Engine.event) =
  let obj kind fields = Json.Obj (("event", Json.String kind) :: fields) in
  let g n = ("group", Json.Int n) in
  let rule r = ("rule", Json.String r) in
  match e with
  | Group_created { group } -> obj "group_created" [ g group ]
  | Mexpr_added { group; op } ->
    obj "mexpr_added"
      [ g group; ("op", Json.String (Format.asprintf "%a" Logical.pp_op op)) ]
  | Groups_merged { winner; loser } ->
    obj "groups_merged" [ ("winner", Json.Int winner); ("loser", Json.Int loser) ]
  | Trule_tried { rule = r; group } -> obj "trule_tried" [ rule r; g group ]
  | Trule_fired { rule = r; group } -> obj "trule_fired" [ rule r; g group ]
  | Irule_tried { rule = r; group } -> obj "irule_tried" [ rule r; g group ]
  | Candidate_costed { rule = r; group; alg; cost } ->
    obj "candidate_costed"
      [ rule r; g group; ("alg", alg_json alg); ("cost", cost_json cost) ]
  | Pruned { group; alg; cost; limit } ->
    obj "pruned"
      [ g group;
        ("alg", alg_json alg);
        ("cost", cost_json cost);
        ("limit", cost_json limit) ]
  | Enforcer_tried { rule = r; group } -> obj "enforcer_tried" [ rule r; g group ]
  | Enforcer_offered { rule = r; group; alg; cost } ->
    obj "enforcer_offered"
      [ rule r; g group; ("alg", alg_json alg); ("cost", cost_json cost) ]
  | Enforcer_inserted { group; alg } ->
    obj "enforcer_inserted" [ g group; ("alg", alg_json alg) ]
  | Phys_memo_hit { group; required } ->
    obj "phys_memo_hit"
      [ g group;
        ("required", Json.String (Format.asprintf "%a" Physprop.pp required)) ]

let to_json ?(prov_dropped = 0) ~rules t =
  let x = t.totals in
  Json.Obj
    ((* top-level, not buried in "timeline": consumers checking
        completeness should not need to know the nesting *)
     [ ("dropped", Json.Int (dropped t)); ("prov_dropped", Json.Int prov_dropped) ]
    @ (if dropped t > 0 then
         [ ( "dropped_warning",
             Json.String
               (Printf.sprintf
                  "%d of %d events dropped (ring capacity exceeded); timeline is \
                   a suffix, aggregates remain exact"
                  (dropped t) (seen t)) ) ]
       else [])
    @ (if prov_dropped > 0 then
         [ ( "prov_dropped_warning",
             Json.String
               (Printf.sprintf
                  "%d provenance candidate-log rows dropped (cap exceeded); lineage \
                   and explanations are incomplete"
                  prov_dropped) ) ]
       else [])
    @ [ ( "totals",
        Json.Obj
          [ ("groups_created", Json.Int x.groups_created);
            ("mexprs_added", Json.Int x.mexprs_added);
            ("merges", Json.Int x.merges);
            ("trules_tried", Json.Int x.trules_tried);
            ("trules_fired", Json.Int x.trules_fired);
            ("irules_tried", Json.Int x.irules_tried);
            ("candidates", Json.Int x.candidates);
            ("prunes", Json.Int x.prunes);
            ("enforcers_tried", Json.Int x.enforcers_tried);
            ("enforcer_offers", Json.Int x.enforcer_offers);
            ("enforcer_inserts", Json.Int x.enforcer_inserts);
            ("memo_hits", Json.Int x.memo_hits) ] );
      ( "rules",
        Json.List
          (List.map
             (fun (name, tried, fired) ->
               Json.Obj
                 [ ("rule", Json.String name);
                   ("tried", Json.Int tried);
                   ("fired", Json.Int fired) ])
             rules) );
      ( "groups",
        Json.List
          (List.map
             (fun (gid, c) ->
               Json.Obj
                 [ ("group", Json.Int gid);
                   ("mexprs", Json.Int c.c_mexprs);
                   ("trules_fired", Json.Int c.c_trules_fired);
                   ("candidates", Json.Int c.c_candidates);
                   ("prunes", Json.Int c.c_prunes);
                   ("enforcer_inserts", Json.Int c.c_enforcer_inserts);
                   ("memo_hits", Json.Int c.c_memo_hits) ])
             (per_group t)) );
      ( "timeline",
        Json.Obj
          [ ("seen", Json.Int (seen t));
            ("dropped", Json.Int (dropped t));
            ( "events",
              Json.List
                (List.map
                   (fun (seq, e) ->
                     match event_json e with
                     | Json.Obj fields -> Json.Obj (("seq", Json.Int seq) :: fields)
                     | other -> other)
                   (events t)) ) ] ) ])
