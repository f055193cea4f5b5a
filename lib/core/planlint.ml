module Pred = Oodb_algebra.Pred
module Logical = Oodb_algebra.Logical
module Catalog = Oodb_catalog.Catalog
module Schema = Oodb_catalog.Schema
module Bset = Physprop.Bset
module Engine = Model.Engine

type violation =
  | Arity_mismatch of { alg : string; expected : int; got : int }
  | Unknown_collection of string
  | Not_scannable of string
  | Unknown_index of { index : string; coll : string }
  | Out_of_scope of { binding : string; context : string }
  | Not_in_memory of { binding : string; context : string }
  | Not_a_reference of { binding : string; field : string option; context : string }
  | Not_set_valued of { binding : string; field : string }
  | Unknown_attribute of { cls : string; field : string; context : string }
  | Duplicate_binding of string
  | Missing_sort_order of {
      side : string;
      expected : Physprop.order option;
      got : Physprop.order option;
    }
  | Undelivered_memory of { binding : string; alg : string }
  | Undelivered_order of { alg : string }
  | Bad_window of int
  | Unsatisfied_required of { delivered : Physprop.t; required : Physprop.t }

let pp_order ppf = function
  | None -> Format.pp_print_string ppf "no order"
  | Some o -> (
    match o.Physprop.ord_field with
    | None -> Format.fprintf ppf "order on %s (identity)" o.Physprop.ord_binding
    | Some f -> Format.fprintf ppf "order on %s.%s" o.Physprop.ord_binding f)

let pp_violation ppf = function
  | Arity_mismatch { alg; expected; got } ->
    Format.fprintf ppf "arity mismatch: %s expects %d input(s), got %d" alg expected got
  | Unknown_collection c -> Format.fprintf ppf "unknown collection %s" c
  | Not_scannable c -> Format.fprintf ppf "collection %s is not scannable" c
  | Unknown_index { index; coll } ->
    Format.fprintf ppf "no index named %s on collection %s" index coll
  | Out_of_scope { binding; context } ->
    Format.fprintf ppf "binding %s is not in scope (%s)" binding context
  | Not_in_memory { binding; context } ->
    Format.fprintf ppf "binding %s is not present in memory (%s)" binding context
  | Not_a_reference { binding; field; context } -> (
    match field with
    | Some f ->
      Format.fprintf ppf "%s.%s is not a single-valued reference (%s)" binding f context
    | None -> Format.fprintf ppf "%s is not a reference (%s)" binding context)
  | Not_set_valued { binding; field } ->
    Format.fprintf ppf "%s.%s is not set-valued (unnest)" binding field
  | Unknown_attribute { cls; field; context } ->
    Format.fprintf ppf "class %s has no attribute %s (%s)" cls field context
  | Duplicate_binding b -> Format.fprintf ppf "binding %s introduced twice" b
  | Missing_sort_order { side; expected; got } ->
    Format.fprintf ppf "merge-join %s input: needs %a, input delivers %a" side pp_order
      expected pp_order got
  | Undelivered_memory { binding; alg } ->
    Format.fprintf ppf "%s claims %s in memory but does not materialize it" alg binding
  | Undelivered_order { alg } ->
    Format.fprintf ppf "%s claims a sort order it does not produce" alg
  | Bad_window w -> Format.fprintf ppf "assembly window must be >= 1, got %d" w
  | Unsatisfied_required { delivered; required } ->
    Format.fprintf ppf "plan delivers %a but the goal requires %a" Physprop.pp delivered
      Physprop.pp required

let pp_violations ppf vs =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "@.")
    pp_violation ppf vs

(* Linter state, maintained exactly as the executor maintains tuples:
   which bindings each tuple carries (with their classes when known),
   which of them are materialized objects rather than bare references,
   and the stream's physical order. *)
type st = {
  scope : (string * string option) list;
  mem : Bset.t;
  ord : Physprop.order option;
}

let in_scope st b = List.mem_assoc b st.scope

let class_of st b = match List.assoc_opt b st.scope with Some c -> c | None -> None

let check_operand cat st emit ~context = function
  | Pred.Const _ -> ()
  | Pred.Self b -> if not (in_scope st b) then emit (Out_of_scope { binding = b; context })
  | Pred.Field (b, f) ->
    if not (in_scope st b) then emit (Out_of_scope { binding = b; context })
    else begin
      if not (Bset.mem b st.mem) then emit (Not_in_memory { binding = b; context });
      match class_of st b with
      | None -> ()
      | Some cls -> (
        match Schema.attr_ty (Catalog.schema cat) ~cls f with
        | Some _ -> ()
        | None -> emit (Unknown_attribute { cls; field = f; context }))
    end

let check_pred cat st emit ~context p =
  List.iter
    (fun (a : Pred.atom) ->
      check_operand cat st emit ~context a.Pred.lhs;
      check_operand cat st emit ~context a.Pred.rhs)
    p

(* Class reached by dereferencing [field] of [src]; emits violations for
   missing attributes and non-reference steps. *)
let deref_target cat st emit ~context src field =
  match field with
  | None -> class_of st src
  | Some f -> (
    match class_of st src with
    | None -> None
    | Some cls -> (
      match Schema.attr_ty (Catalog.schema cat) ~cls f with
      | None ->
        emit (Unknown_attribute { cls; field = f; context });
        None
      | Some (Schema.Ref t) -> Some t
      | Some _ ->
        emit (Not_a_reference { binding = src; field; context });
        None))

let key_order = function
  | Pred.Field (b, f) -> Some { Physprop.ord_binding = b; ord_field = Some f }
  | Pred.Self b -> Some { Physprop.ord_binding = b; ord_field = None }
  | Pred.Const _ -> None

let combine l r = { scope = l.scope @ r.scope; mem = Bset.union l.mem r.mem; ord = None }

let check_dup emit l r =
  List.iter
    (fun (b, _) -> if in_scope l b then emit (Duplicate_binding b))
    r.scope

let expected_arity : Physical.t -> int = function
  | Physical.File_scan _ | Physical.Index_scan _ -> 0
  | Physical.Filter _ | Physical.Pointer_join _ | Physical.Assembly _
  | Physical.Alg_project _ | Physical.Alg_unnest _ | Physical.Sort _ -> 1
  | Physical.Hash_join _ | Physical.Merge_join _ | Physical.Hash_union
  | Physical.Hash_intersect | Physical.Hash_difference -> 2

(* The executor wraps every child iterator in [Operators.trim child.delivered]:
   objects the child does not promise are demoted to bare references. The
   parent therefore sees [computed ∩ delivered] in memory — and a delivered
   claim beyond what the child computes is itself a violation. *)
let deliver emit (p : Engine.plan) st =
  let d = p.Engine.delivered in
  Bset.iter
    (fun b ->
      if not (Bset.mem b st.mem) then
        emit (Undelivered_memory { binding = b; alg = Physical.to_string p.Engine.alg }))
    d.Physprop.in_memory;
  (match d.Physprop.order with
  | Some o when st.ord <> Some o ->
    emit (Undelivered_order { alg = Physical.to_string p.Engine.alg })
  | _ -> ());
  { st with mem = Bset.inter st.mem d.Physprop.in_memory }

let rec walk cat emit (p : Engine.plan) : st =
  let expected = expected_arity p.Engine.alg in
  let got = List.length p.Engine.children in
  let children = List.map (fun c -> deliver emit c (walk cat emit c)) p.Engine.children in
  let raw =
    if got <> expected then begin
      emit
        (Arity_mismatch { alg = Physical.to_string p.Engine.alg; expected; got });
      (* best effort: keep whatever the children provide *)
      List.fold_left combine { scope = []; mem = Bset.empty; ord = None } children
    end
    else node cat emit p.Engine.alg children
  in
  raw

and node cat emit alg children =
  match alg, children with
  | Physical.File_scan { coll; binding }, [] ->
    let cls =
      match Catalog.find_collection cat coll with
      | None ->
        emit (Unknown_collection coll);
        None
      | Some co ->
        if co.Catalog.co_kind = Catalog.Hidden then emit (Not_scannable coll);
        Some co.Catalog.co_class
    in
    { scope = [ (binding, cls) ];
      mem = Bset.singleton binding;
      (* members stream in insertion order: ordered by object identity *)
      ord = Some { Physprop.ord_binding = binding; ord_field = None } }
  | Physical.Index_scan { coll; binding; index; key = _; residual; derefs }, [] ->
    let cls =
      match Catalog.find_collection cat coll with
      | None ->
        emit (Unknown_collection coll);
        None
      | Some co -> Some co.Catalog.co_class
    in
    if not (List.exists (fun ix -> ix.Catalog.ix_name = index) (Catalog.indexes_on cat ~coll))
    then emit (Unknown_index { index; coll });
    let st0 = { scope = [ (binding, cls) ]; mem = Bset.singleton binding; ord = None } in
    check_pred cat st0 emit ~context:"index-scan residual" residual;
    (* the consumed Mat links are re-emitted as bare references, root first *)
    List.fold_left
      (fun st (src, field, out) ->
        if not (in_scope st src) then begin
          emit (Out_of_scope { binding = src; context = "index-scan deref" });
          st
        end
        else begin
          let target = deref_target cat st emit ~context:"index-scan deref" src field in
          if in_scope st out then begin
            emit (Duplicate_binding out);
            st
          end
          else { st with scope = st.scope @ [ (out, target) ] }
        end)
      st0 derefs
  | Physical.Filter pred, [ c ] ->
    check_pred cat c emit ~context:"filter predicate" pred;
    c
  | Physical.Hash_join pred, [ l; r ] ->
    check_dup emit l r;
    let st = combine l r in
    check_pred cat st emit ~context:"hash-join predicate" pred;
    st
  | Physical.Merge_join { key_l; key_r; residual }, [ l; r ] ->
    check_dup emit l r;
    check_operand cat l emit ~context:"merge-join left key" key_l;
    check_operand cat r emit ~context:"merge-join right key" key_r;
    let want_l = key_order key_l and want_r = key_order key_r in
    if l.ord <> want_l then
      emit (Missing_sort_order { side = "left"; expected = want_l; got = l.ord });
    if r.ord <> want_r then
      emit (Missing_sort_order { side = "right"; expected = want_r; got = r.ord });
    let st = combine l r in
    check_pred cat st emit ~context:"merge-join residual" residual;
    (* the merge streams in left-key order *)
    { st with ord = want_l }
  | Physical.Pointer_join { src; field; out; residual }, [ c ] ->
    let st =
      if not (in_scope c src) then begin
        emit (Out_of_scope { binding = src; context = "pointer-join source" });
        c
      end
      else begin
        if field <> None && not (Bset.mem src c.mem) then
          emit (Not_in_memory { binding = src; context = "pointer-join source" });
        let target = deref_target cat c emit ~context:"pointer-join" src field in
        if in_scope c out then begin
          emit (Duplicate_binding out);
          c
        end
        else
          { c with scope = c.scope @ [ (out, target) ]; mem = Bset.add out c.mem }
      end
    in
    check_pred cat st emit ~context:"pointer-join residual" residual;
    st
  | Physical.Assembly { paths; window; warm }, [ c ] ->
    if window < 1 then emit (Bad_window window);
    (match warm with
    | None -> ()
    | Some w -> (
      match Catalog.find_collection cat w with
      | None -> emit (Unknown_collection w)
      | Some co -> if co.Catalog.co_kind = Catalog.Hidden then emit (Not_scannable w)));
    List.fold_left
      (fun st (path : Physical.assembly_path) ->
        let src = path.Physical.ap_src
        and field = path.Physical.ap_field
        and out = path.Physical.ap_out in
        if not (in_scope st src) then begin
          emit (Out_of_scope { binding = src; context = "assembly path" });
          st
        end
        else begin
          (* reading src.field needs the source object; a bare-reference
             source ([field = None]) only needs the OID every tuple holds *)
          if field <> None && not (Bset.mem src st.mem) then
            emit (Not_in_memory { binding = src; context = "assembly path" });
          let target = deref_target cat st emit ~context:"assembly path" src field in
          let scope =
            (* [out] may already be in scope: assembly-as-enforcer
               re-materializes a binding the tuple carries as a reference *)
            if in_scope st out then st.scope else st.scope @ [ (out, target) ]
          in
          { st with scope; mem = Bset.add out st.mem }
        end)
      c paths
  | Physical.Alg_project ps, [ c ] ->
    let operands = List.map (fun (p : Logical.proj) -> p.Logical.p_expr) ps in
    List.iter (check_operand cat c emit ~context:"project expression") operands;
    let keep =
      List.concat_map Pred.bindings_of_operand operands
      |> List.fold_left (fun acc b -> if List.mem b acc then acc else acc @ [ b ]) []
    in
    let scope = List.filter (fun (b, _) -> List.mem b keep) c.scope in
    { scope;
      mem = Bset.filter (fun b -> List.mem b keep) c.mem;
      ord =
        (match c.ord with
        | Some o when List.mem o.Physprop.ord_binding keep -> c.ord
        | _ -> None) }
  | Physical.Alg_unnest { src; field; out }, [ c ] ->
    if not (in_scope c src) then begin
      emit (Out_of_scope { binding = src; context = "unnest source" });
      c
    end
    else begin
      if not (Bset.mem src c.mem) then
        emit (Not_in_memory { binding = src; context = "unnest source" });
      let target =
        match class_of c src with
        | None -> None
        | Some cls -> (
          match Schema.attr_ty (Catalog.schema cat) ~cls field with
          | None ->
            emit (Unknown_attribute { cls; field; context = "unnest source" });
            None
          | Some (Schema.Set_of ty) -> Schema.ref_target ty
          | Some _ ->
            emit (Not_set_valued { binding = src; field });
            None)
      in
      if in_scope c out then begin
        emit (Duplicate_binding out);
        c
      end
      else
        (* the element enters scope as a reference, not in memory *)
        { c with scope = c.scope @ [ (out, target) ] }
    end
  | (Physical.Hash_union | Physical.Hash_intersect | Physical.Hash_difference), [ l; r ]
    ->
    List.iter
      (fun (b, _) ->
        if not (in_scope r b) then
          emit (Out_of_scope { binding = b; context = "set-operation right input" }))
      l.scope;
    List.iter
      (fun (b, _) ->
        if not (in_scope l b) then
          emit (Out_of_scope { binding = b; context = "set-operation left input" }))
      r.scope;
    { scope = l.scope; mem = Bset.inter l.mem r.mem; ord = None }
  | Physical.Sort o, [ c ] ->
    let b = o.Physprop.ord_binding in
    if not (in_scope c b) then
      emit (Out_of_scope { binding = b; context = "sort key" })
    else (
      match o.Physprop.ord_field with
      | None -> ()
      | Some f -> (
        (* sorting by a field reads the object; identity sorts only the OID *)
        if not (Bset.mem b c.mem) then
          emit (Not_in_memory { binding = b; context = "sort key" });
        match class_of c b with
        | None -> ()
        | Some cls -> (
          match Schema.attr_ty (Catalog.schema cat) ~cls f with
          | Some _ -> ()
          | None -> emit (Unknown_attribute { cls; field = f; context = "sort key" }))));
    { c with ord = Some o }
  | _ ->
    (* arity already validated by the caller *)
    assert false

let plan ?(required = Physprop.empty) cat (p : Engine.plan) =
  let acc = ref [] in
  let emit v = acc := v :: !acc in
  let st = walk cat emit p in
  ignore (deliver emit p st);
  if not (Physprop.satisfies ~delivered:p.Engine.delivered ~required) then
    emit (Unsatisfied_required { delivered = p.Engine.delivered; required });
  match List.rev !acc with [] -> Ok () | vs -> Error vs
