module Logical = Oodb_algebra.Logical
module Pred = Oodb_algebra.Pred
module Catalog = Oodb_catalog.Catalog
module Config = Oodb_cost.Config
module Cost = Oodb_cost.Cost
module Lprops = Oodb_cost.Lprops
module Estimator = Oodb_cost.Estimator
module Selectivity = Oodb_cost.Selectivity
module Bset = Physprop.Bset
open Model

let out_lprop cfg cat ctx (m : Engine.mexpr) =
  Estimator.derive cfg cat m.Engine.mop
    (List.map (Engine.group_lprop ctx) m.Engine.minputs)

let bset = Bset.of_list

(* An order requirement on a binding the operator itself introduces (or
   materializes) cannot be pushed to its input; the operator then cannot
   deliver it either — a sort enforcer on top must produce it. *)
let order_unless_introduced required outs =
  match required.Physprop.order with
  | Some o when List.mem o.Physprop.ord_binding outs -> None
  | other -> other

(* ------------------------------------------------------------------ *)
(* Get => File Scan                                                     *)

let file_scan cfg cat =
  { Engine.i_name = "file-scan";
    i_match =
      (fun _ctx m ->
        match m.Engine.mop, m.Engine.minputs with
        | Logical.Get { coll; binding }, [] -> (
          match Catalog.find_collection cat coll with
          | Some co when co.Catalog.co_kind <> Catalog.Hidden ->
            (* the same candidate for every goal *)
            let cands =
              [ { Engine.cand_alg = Physical.File_scan { coll; binding };
                  cand_inputs = [];
                  cand_cost = Costmodel.file_scan cfg co;
                  cand_delivers =
                    (* members are packed in insertion order: the scan
                       streams them ordered by object identity *)
                    Physprop.with_order
                      { Physprop.ord_binding = binding; ord_field = None }
                      (Physprop.in_memory [ binding ]) } ]
            in
            Some (fun ~required:_ -> cands)
          | Some _ | None -> None)
        | _ -> None) }

(* ------------------------------------------------------------------ *)
(* Select (Mat* (Get)) => Index Scan (collapse-to-index-scan)           *)

(* Chase a Mat chain below [g] down to a Get, returning the collection,
   the scanned binding and the chain's Mat arguments. *)
let rec chase_to_get ctx g mats fuel =
  if fuel <= 0 then None
  else
    let exprs = Engine.group_exprs ctx g in
    let get =
      List.find_map
        (fun (m : Engine.mexpr) ->
          match m.Engine.mop with
          | Logical.Get { coll; binding } -> Some (coll, binding, mats)
          | _ -> None)
        exprs
    in
    match get with
    | Some _ as r -> r
    | None ->
      List.find_map
        (fun (m : Engine.mexpr) ->
          match m.Engine.mop, m.Engine.minputs with
          | Logical.Mat { src; field; out }, [ g' ] ->
            chase_to_get ctx g' ((src, field, out) :: mats) (fuel - 1)
          | _ -> None)
        exprs

(* Root-relative attribute paths of the chain's bindings. [mats] are
   (src, field, out) triples in arbitrary order. *)
let chain_paths root mats =
  let paths = Hashtbl.create 8 in
  Hashtbl.add paths root [];
  let rec fixpoint remaining =
    let ready, rest =
      List.partition (fun (src, _, _) -> Hashtbl.mem paths src) remaining
    in
    if ready = [] then ()
    else begin
      List.iter
        (fun (src, field, out) ->
          let base = Hashtbl.find paths src in
          Hashtbl.add paths out (match field with Some f -> base @ [ f ] | None -> base))
        ready;
      fixpoint rest
    end
  in
  fixpoint mats;
  paths

let residual_on_root root atoms =
  List.for_all
    (fun (a : Pred.atom) ->
      let operand_ok = function
        | Pred.Const _ -> true
        | Pred.Field (b, _) -> b = root
        | Pred.Self b -> b = root
      in
      operand_ok a.Pred.lhs && operand_ok a.Pred.rhs)
    atoms

let collapse_index_scan cfg cat =
  { Engine.i_name = "collapse-index-scan";
    i_match =
      (fun ctx m ->
        match m.Engine.mop, m.Engine.minputs with
        | Logical.Select p, [ g ] -> (
          match chase_to_get ctx g [] 16 with
          | None -> None
          | Some (coll, root, mats) -> (
            match Catalog.find_collection cat coll with
            | None -> None
            | Some co -> (
              let paths = chain_paths root mats in
              let cands =
                List.concat_map
                  (fun (a : Pred.atom) ->
                    let indexed =
                      match a.Pred.cmp, a.Pred.lhs, a.Pred.rhs with
                      | Pred.Eq, Pred.Field (b, f), Pred.Const v
                      | Pred.Eq, Pred.Const v, Pred.Field (b, f) -> (
                        match Hashtbl.find_opt paths b with
                        | Some base -> (
                          match Catalog.find_index cat ~coll ~path:(base @ [ f ]) with
                          | Some ix -> Some (ix, v)
                          | None -> None)
                        | None -> None)
                      | _ -> None
                    in
                    match indexed with
                    | None -> []
                    | Some (ix, key) ->
                      let residual = List.filter (fun a' -> a' <> a) p in
                      if not (residual_on_root root residual) then []
                      else
                        (* An observed selectivity for the consumed key
                           atom overrides the index distinct statistic,
                           keeping the scan's match estimate consistent
                           with how Select prices the same atom. *)
                        let matches =
                          match
                            Selectivity.feedback_sel cfg
                              ~env:(Engine.group_lprop ctx g) a
                          with
                          | Some s -> float_of_int co.Catalog.co_card *. s
                          | None ->
                            float_of_int co.Catalog.co_card
                            /. Float.max 1.0 (float_of_int ix.Catalog.ix_distinct)
                        in
                        [ { Engine.cand_alg =
                              Physical.Index_scan
                                { coll;
                                  binding = root;
                                  index = ix.Catalog.ix_name;
                                  key;
                                  residual;
                                  derefs = mats };
                            cand_inputs = [];
                            cand_cost =
                              Costmodel.index_scan cfg ~coll:co ~matches
                                ~residual_atoms:(List.length residual);
                            cand_delivers = Physprop.in_memory [ root ] } ])
                  p
              in
              match cands with
              | [] -> None
              | _ :: _ ->
                (* the scan delivers only the root binding, unordered *)
                let root_only = bset [ root ] in
                Some
                  (fun ~required ->
                    if
                      Bset.subset required.Physprop.in_memory root_only
                      && required.Physprop.order = None
                    then cands
                    else []))))
        | _ -> None) }

(* ------------------------------------------------------------------ *)
(* Select => Filter                                                     *)

let filter cfg =
  { Engine.i_name = "filter";
    i_match =
      (fun ctx m ->
        match m.Engine.mop, m.Engine.minputs with
        | Logical.Select p, [ g ] ->
          let memb = bset (Pred.memory_bindings p) in
          let card = (Engine.group_lprop ctx g).Lprops.card in
          let alg = Physical.Filter p
          and cost = Costmodel.filter cfg ~card ~atoms:(List.length p) in
          Some
            (fun ~required ->
              let inp =
                { Physprop.in_memory = Bset.union required.Physprop.in_memory memb;
                  order = required.Physprop.order }
              in
              [ { Engine.cand_alg = alg;
                  cand_inputs = [ (g, inp) ];
                  cand_cost = cost;
                  cand_delivers = inp } ])
        | _ -> None) }

(* ------------------------------------------------------------------ *)
(* Join => Hybrid Hash Join (first input builds, second probes)         *)

(* The required bindings in the scope of the input with logical
   properties [lp], plus the ones the algorithm itself reads there
   ([own], already restricted to that scope). Costers capture [lp],
   which the memo keeps anyway, rather than a scope list of their own. *)
let side_memory ~required (lp : Lprops.t) own =
  Bset.union
    (Bset.filter (fun b -> List.mem_assoc b lp.Lprops.bindings) required.Physprop.in_memory)
    own

let in_scope scope bs = bset (List.filter (fun b -> List.mem b scope) bs)

let hash_join cfg cat =
  { Engine.i_name = "hash-join";
    i_match =
      (fun ctx m ->
        match m.Engine.mop, m.Engine.minputs with
        | (Logical.Join _ | Logical.Cross), [ gl; gr ] ->
          let p = match m.Engine.mop with Logical.Join p -> p | _ -> [] in
          let ll = Engine.group_lprop ctx gl and lr = Engine.group_lprop ctx gr in
          let sl = List.map fst ll.Lprops.bindings
          and sr = List.map fst lr.Lprops.bindings in
          let memb = Pred.memory_bindings p in
          let own_l = in_scope sl memb and own_r = in_scope sr memb in
          let out_card = (out_lprop cfg cat ctx m).Lprops.card in
          let bytes lp props =
            ((Lprops.bytes_of lp (Bset.elements props.Physprop.in_memory) +. 16.0)
            *. lp.Lprops.card)
          in
          (* equality conjuncts spanning both sides become hash keys;
             only the rest are evaluated per probe *)
          let residual_atoms =
            List.length
              (List.filter
                 (fun (a : Pred.atom) ->
                   let side_of op =
                     let bs = Pred.bindings_of_operand op in
                     if bs = [] then `Const
                     else if List.for_all (fun b -> List.mem b sl) bs then `L
                     else if List.for_all (fun b -> List.mem b sr) bs then `R
                     else `Mixed
                   in
                   not
                     (a.Pred.cmp = Pred.Eq
                     &&
                     match side_of a.Pred.lhs, side_of a.Pred.rhs with
                     | `L, `R | `R, `L -> true
                     | _ -> false))
                 p)
          in
          let alg = Physical.Hash_join p in
          Some
            (fun ~required ->
              let inp_l = { Physprop.in_memory = side_memory ~required ll own_l; order = None } in
              let inp_r = { Physprop.in_memory = side_memory ~required lr own_r; order = None } in
              [ { Engine.cand_alg = alg;
                  cand_inputs = [ (gl, inp_l); (gr, inp_r) ];
                  cand_cost =
                    Costmodel.hash_join cfg ~build_card:ll.Lprops.card
                      ~build_bytes:(bytes ll inp_l) ~probe_card:lr.Lprops.card
                      ~probe_bytes:(bytes lr inp_r) ~out_card ~atoms:residual_atoms;
                  cand_delivers =
                    { Physprop.in_memory =
                        Bset.union inp_l.Physprop.in_memory inp_r.Physprop.in_memory;
                      order = None } } ])
        | _ -> None) }

(* ------------------------------------------------------------------ *)
(* Join => Merge Join (inputs ordered on the join key)                  *)

let order_of_operand = function
  | Pred.Field (b, f) -> Some { Physprop.ord_binding = b; ord_field = Some f }
  | Pred.Self b -> Some { Physprop.ord_binding = b; ord_field = None }
  | Pred.Const _ -> None

let merge_join cfg cat =
  { Engine.i_name = "merge-join";
    i_match =
      (fun ctx m ->
        match m.Engine.mop, m.Engine.minputs with
        | Logical.Join p, [ gl; gr ] -> (
          let ll = Engine.group_lprop ctx gl and lr = Engine.group_lprop ctx gr in
          let sl = List.map fst ll.Lprops.bindings
          and sr = List.map fst lr.Lprops.bindings in
          let side_of op =
            let bs = Pred.bindings_of_operand op in
            if bs = [] then `Const
            else if List.for_all (fun b -> List.mem b sl) bs then `Left
            else if List.for_all (fun b -> List.mem b sr) bs then `Right
            else `Mixed
          in
          let out_card = lazy (out_lprop cfg cat ctx m).Lprops.card in
          (* one keyed merge per equality conjunct across the two sides:
             its input orders, own memory bindings per side, and cost *)
          let keyed =
            List.concat_map
              (fun (a : Pred.atom) ->
                if a.Pred.cmp <> Pred.Eq then []
                else
                  let keys =
                    match side_of a.Pred.lhs, side_of a.Pred.rhs with
                    | `Left, `Right -> Some (a.Pred.lhs, a.Pred.rhs)
                    | `Right, `Left -> Some (a.Pred.rhs, a.Pred.lhs)
                    | _ -> None
                  in
                  match keys with
                  | None -> []
                  | Some (key_l, key_r) -> (
                    match order_of_operand key_l, order_of_operand key_r with
                    | Some ord_l, Some ord_r ->
                      let residual = List.filter (fun a' -> a' <> a) p in
                      let memb = Pred.memory_bindings (a :: residual) in
                      [ ( Physical.Merge_join { key_l; key_r; residual },
                          (ord_l, in_scope sl memb),
                          (ord_r, in_scope sr memb),
                          Costmodel.merge_join cfg ~left_card:ll.Lprops.card
                            ~right_card:lr.Lprops.card ~out_card:(Lazy.force out_card)
                            ~atoms:(List.length residual) ) ]
                    | _ -> []))
              p
          in
          match keyed with
          | [] -> None
          | _ :: _ ->
            Some
              (fun ~required ->
                List.map
                  (fun (alg, (ord_l, own_l), (ord_r, own_r), cost) ->
                    let inp_l =
                      { Physprop.in_memory = side_memory ~required ll own_l; order = Some ord_l }
                    in
                    let inp_r =
                      { Physprop.in_memory = side_memory ~required lr own_r; order = Some ord_r }
                    in
                    { Engine.cand_alg = alg;
                      cand_inputs = [ (gl, inp_l); (gr, inp_r) ];
                      cand_cost = cost;
                      cand_delivers =
                        (* the merge streams in left-key order *)
                        { Physprop.in_memory =
                            Bset.union inp_l.Physprop.in_memory inp_r.Physprop.in_memory;
                          order = Some ord_l } })
                  keyed))
        | _ -> None) }

(* ------------------------------------------------------------------ *)
(* Join on a reference link against a plain Get => Pointer Join          *)

let pointer_join cfg cat =
  { Engine.i_name = "pointer-join";
    i_match =
      (fun ctx m ->
        match m.Engine.mop, m.Engine.minputs with
        | Logical.Join p, [ gl; gr ] ->
          let ll = Engine.group_lprop ctx gl and lr = Engine.group_lprop ctx gr in
          let sl = List.map fst ll.Lprops.bindings
          and sr = List.map fst lr.Lprops.bindings in
          let right_is_get =
            List.exists
              (fun (m' : Engine.mexpr) ->
                match m'.Engine.mop with Logical.Get _ -> true | _ -> false)
              (Engine.group_exprs ctx gr)
          in
          if not right_is_get then None
          else begin
            (* one chase per reference link from the left scope to the
               right side's single binding *)
            let links =
              List.concat_map
                (fun (a : Pred.atom) ->
                  let link =
                    match Pred.ref_eq_sides a with
                    | Some (src, field, target) -> Some (src, Some field, target)
                    | None -> (
                      match a.Pred.cmp, a.Pred.lhs, a.Pred.rhs with
                      | Pred.Eq, Pred.Self x, Pred.Self y ->
                        if List.mem x sl && List.mem y sr then Some (x, None, y)
                        else if List.mem y sl && List.mem x sr then Some (y, None, x)
                        else None
                      | _ -> None)
                  in
                  match link with
                  | Some (src, field, target) when List.mem src sl && sr = [ target ] -> (
                    match Lprops.class_of lr target with
                    | None -> []
                    | Some target_cls ->
                      let residual = List.filter (fun a' -> a' <> a) p in
                      [ ( Physical.Pointer_join { src; field; out = target; residual },
                          (src, field, target),
                          in_scope sl (Pred.memory_bindings residual),
                          Costmodel.pointer_join cfg cat ~target_cls
                            ~stream_card:ll.Lprops.card ~atoms:(List.length residual) ) ])
                  | Some _ | None -> [])
                p
            in
            match links with
            | [] -> None
            | _ :: _ ->
              Some
                (fun ~required ->
                  List.map
                    (fun (alg, (src, field, target), own, cost) ->
                      let inp_mem =
                        let base = side_memory ~required ll own in
                        match field with Some _ -> Bset.add src base | None -> base
                      in
                      let pass_order = order_unless_introduced required [ target ] in
                      let inp = { Physprop.in_memory = inp_mem; order = pass_order } in
                      { Engine.cand_alg = alg;
                        cand_inputs = [ (gl, inp) ];
                        cand_cost = cost;
                        cand_delivers =
                          { Physprop.in_memory = Bset.add target inp_mem; order = pass_order } })
                    links)
          end
        | _ -> None) }

(* ------------------------------------------------------------------ *)
(* Mat (and Mat chains) => Assembly                                     *)

(* An assembly over [paths] on [input_group]'s stream: everything but
   the input's property requirement is worked out here, once. *)
let assembly_coster cfg cat ctx ~window ~input_group paths =
  let out_names = List.map (fun p -> p.Physical.ap_out) paths in
  let outs = bset out_names in
  let srcs_mem =
    bset
      (List.filter_map
         (fun p ->
           match p.Physical.ap_field with
           | Some _ when not (Bset.mem p.Physical.ap_src outs) -> Some p.Physical.ap_src
           | Some _ | None -> None)
         paths)
  in
  let input_lp = Engine.group_lprop ctx input_group in
  let stream_card = input_lp.Lprops.card in
  (* Classes reached by each path, for the extent-bounded fetch count. *)
  let classes =
    List.filter_map
      (fun p ->
        let src_cls b = Lprops.class_of input_lp b in
        match p.Physical.ap_field with
        | None -> (
          match src_cls p.Physical.ap_src with
          | Some c -> Some c
          | None ->
            (* source produced by an earlier path in this assembly *)
            List.find_map
              (fun q ->
                if q.Physical.ap_out = p.Physical.ap_src then
                  src_cls q.Physical.ap_src
                else None)
              paths)
        | Some f -> (
          let rec owner b =
            match src_cls b with
            | Some c -> Some c
            | None ->
              List.find_map
                (fun q ->
                  if q.Physical.ap_out = b then
                    match q.Physical.ap_field with
                    | Some qf -> (
                      match owner q.Physical.ap_src with
                      | Some c ->
                        Oodb_catalog.Schema.follow (Catalog.schema cat) ~cls:c qf
                      | None -> None)
                    | None -> owner q.Physical.ap_src
                  else None)
                paths
          in
          match owner p.Physical.ap_src with
          | Some c -> Oodb_catalog.Schema.follow (Catalog.schema cat) ~cls:c f
          | None -> None))
      paths
  in
  let alg = Physical.Assembly { paths; window; warm = None } in
  let cost = Costmodel.assembly cfg cat ~window ~stream_card ~targets:classes in
  fun ~required ->
    let inp =
      { Physprop.in_memory = Bset.union (Bset.diff required.Physprop.in_memory outs) srcs_mem;
        (* assembly preserves its input order, but an order on a binding
           it introduces cannot be required of the input *)
        order = order_unless_introduced required out_names }
    in
    { Engine.cand_alg = alg;
      cand_inputs = [ (input_group, inp) ];
      cand_cost = cost;
      cand_delivers = { inp with Physprop.in_memory = Bset.union inp.Physprop.in_memory outs } }

(* Mat => warm-start assembly (paper Lesson 7): pre-scan the referenced
   collection so dereferences hit the buffer. Offered only when the
   collection fits the buffer pool. *)
let warm_assembly cfg cat =
  { Engine.i_name = "warm-assembly";
    i_match =
      (fun ctx m ->
        match m.Engine.mop, m.Engine.minputs with
        | Logical.Mat { src; field; out }, [ g ] -> (
          let input_lp = Engine.group_lprop ctx g in
          let target_cls =
            match field with
            | Some f ->
              Option.bind (Lprops.class_of input_lp src) (fun cls ->
                  Oodb_catalog.Schema.follow (Catalog.schema cat) ~cls f)
            | None -> Lprops.class_of input_lp src
          in
          match Option.map (Catalog.scannables_of_class cat) target_cls with
          | Some (co :: _)
            when co.Catalog.co_card * co.Catalog.co_obj_bytes
                 <= cfg.Config.buffer_pages * cfg.Config.page_bytes ->
            let path = { Physical.ap_src = src; ap_field = field; ap_out = out } in
            let alg =
              Physical.Assembly
                { paths = [ path ];
                  window = cfg.Config.assembly_window;
                  warm = Some co.Catalog.co_name }
            and cost =
              Costmodel.warm_assembly cfg cat ~target_coll:co ~stream_card:input_lp.Lprops.card
            in
            Some
              (fun ~required ->
                let inp =
                  { Physprop.in_memory =
                      Bset.union
                        (Bset.diff required.Physprop.in_memory (Bset.singleton out))
                        (match field with Some _ -> Bset.singleton src | None -> Bset.empty);
                    order = order_unless_introduced required [ out ] }
                in
                [ { Engine.cand_alg = alg;
                    cand_inputs = [ (g, inp) ];
                    cand_cost = cost;
                    cand_delivers =
                      { inp with Physprop.in_memory = Bset.add out inp.Physprop.in_memory } } ])
          | _ -> None)
        | _ -> None) }

let mat_assembly cfg cat =
  { Engine.i_name = "mat-assembly";
    i_match =
      (fun ctx m ->
        match m.Engine.mop, m.Engine.minputs with
        | Logical.Mat { src; field; out }, [ g ] -> (
          let window = cfg.Config.assembly_window in
          let path1 = { Physical.ap_src = src; ap_field = field; ap_out = out } in
          let single = assembly_coster cfg cat ctx ~window ~input_group:g [ path1 ] in
          (* Merged form: consume a whole chain of Mats in one assembly
             operator with several open-reference slots (paper Fig. 7). *)
          let rec chain g acc =
            let next =
              List.find_map
                (fun (m' : Engine.mexpr) ->
                  match m'.Engine.mop, m'.Engine.minputs with
                  | Logical.Mat { src; field; out }, [ g' ] -> Some ((src, field, out), g')
                  | _ -> None)
                (Engine.group_exprs ctx g)
            in
            match next with
            | Some ((src, field, out), g') when List.length acc < 8 ->
              chain g' ({ Physical.ap_src = src; ap_field = field; ap_out = out } :: acc)
            | _ -> (g, acc)
          in
          match chain g [] with
          | _, [] -> Some (fun ~required -> [ single ~required ])
          | bottom, below ->
            let merged =
              assembly_coster cfg cat ctx ~window ~input_group:bottom (below @ [ path1 ])
            in
            Some (fun ~required -> [ single ~required; merged ~required ]))
        | _ -> None) }

(* ------------------------------------------------------------------ *)
(* Project => Alg-Project                                               *)

let alg_project cfg cat =
  { Engine.i_name = "alg-project";
    i_match =
      (fun ctx m ->
        match m.Engine.mop, m.Engine.minputs with
        | Logical.Project ps, [ g ] ->
          ignore cat;
          let mem =
            bset
              (List.concat_map
                 (fun (p : Logical.proj) ->
                   match p.Logical.p_expr with
                   | Pred.Field (b, _) -> [ b ]
                   | Pred.Self b -> [ b ]
                   | Pred.Const _ -> [])
                 ps)
          in
          let card = (Engine.group_lprop ctx g).Lprops.card in
          let alg = Physical.Alg_project ps and cost = Costmodel.alg_project cfg ~card in
          Some
            (fun ~required ->
              let inp = { Physprop.in_memory = mem; order = required.Physprop.order } in
              [ { Engine.cand_alg = alg;
                  cand_inputs = [ (g, inp) ];
                  cand_cost = cost;
                  cand_delivers = required } ])
        | _ -> None) }

(* ------------------------------------------------------------------ *)
(* Unnest => Alg-Unnest                                                 *)

let alg_unnest cfg cat =
  { Engine.i_name = "alg-unnest";
    i_match =
      (fun ctx m ->
        match m.Engine.mop, m.Engine.minputs with
        | Logical.Unnest { src; field; out }, [ g ] ->
          let in_card = (Engine.group_lprop ctx g).Lprops.card in
          let out_card = (out_lprop cfg cat ctx m).Lprops.card in
          let alg = Physical.Alg_unnest { src; field; out }
          and cost = Costmodel.alg_unnest cfg ~in_card ~out_card in
          Some
            (fun ~required ->
              let inp =
                { Physprop.in_memory =
                    Bset.add src (Bset.remove out required.Physprop.in_memory);
                  order = order_unless_introduced required [ out ] }
              in
              [ { Engine.cand_alg = alg;
                  cand_inputs = [ (g, inp) ];
                  cand_cost = cost;
                  cand_delivers = inp } ])
        | _ -> None) }

(* ------------------------------------------------------------------ *)
(* Set operators => hash-based implementations                          *)

let hash_setop cfg cat =
  { Engine.i_name = "hash-setop";
    i_match =
      (fun ctx m ->
        match m.Engine.mop, m.Engine.minputs with
        | (Logical.Union | Logical.Intersect | Logical.Difference), [ gl; gr ] ->
          let alg =
            match m.Engine.mop with
            | Logical.Union -> Physical.Hash_union
            | Logical.Intersect -> Physical.Hash_intersect
            | _ -> Physical.Hash_difference
          in
          let ll = Engine.group_lprop ctx gl and lr = Engine.group_lprop ctx gr in
          let out = out_lprop cfg cat ctx m in
          let cost =
            Costmodel.hash_setop cfg ~left_card:ll.Lprops.card ~right_card:lr.Lprops.card
              ~out_card:out.Lprops.card
          in
          Some
            (fun ~required ->
              let inp = { Physprop.in_memory = required.Physprop.in_memory; order = None } in
              [ { Engine.cand_alg = alg;
                  cand_inputs = [ (gl, inp); (gr, inp) ];
                  cand_cost = cost;
                  cand_delivers = inp } ])
        | _ -> None) }

let all cfg cat =
  [ file_scan cfg cat;
    collapse_index_scan cfg cat;
    filter cfg;
    hash_join cfg cat;
    merge_join cfg cat;
    pointer_join cfg cat;
    mat_assembly cfg cat;
    warm_assembly cfg cat;
    alg_project cfg cat;
    alg_unnest cfg cat;
    hash_setop cfg cat ]

let names =
  [ "file-scan";
    "collapse-index-scan";
    "filter";
    "hash-join";
    "merge-join";
    "pointer-join";
    "mat-assembly";
    "warm-assembly";
    "alg-project";
    "alg-unnest";
    "hash-setop" ]
