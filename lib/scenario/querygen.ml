module Prng = Oodb_util.Prng
module Value = Oodb_storage.Value
module Ast = Zql.Ast
module G = Schemagen

(* Queries are generated as ZQL abstract syntax and rendered to concrete
   text by the caller ([Ast.to_zql]), so the real lexer, parser and
   simplifier sit on every fuzz path. Construction keeps to the shapes
   the simplifier accepts: joins are reference-equality atoms
   ([v.ref == w]), set-valued ranges come from in-scope bindings, EXISTS
   subqueries always carry a correlating atom, and set-operation
   branches share FROM, SELECT and join atoms so they deliver identical
   scopes. *)

type range_info = { ri_var : string; ri_cls : G.cls }

let path root steps = { Ast.p_root = root; p_steps = steps; p_pos = Zql.Loc.none }

let var i = Printf.sprintf "v%d" i

let conj = function
  | [] -> None
  | c :: cs -> Some (List.fold_left (fun a b -> Ast.And (a, b)) c cs)

let range ri =
  { Ast.r_class = None;
    r_var = ri.ri_var;
    r_src = Ast.Coll (G.coll_of ri.ri_cls.G.c_name);
    r_pos = Zql.Loc.none }

(* Equality and inequality make sense for every kind; orderings only for
   kinds whose generated literals land inside the stored value range. *)
let cmp_for rng = function
  | G.F_bool | G.F_str _ -> if Prng.bool rng then Ast.Eq else Ast.Ne
  | G.F_int _ | G.F_float | G.F_date ->
    Prng.pick rng [| Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge |]

let scalar_atom rng ri =
  let f, k = Prng.pick rng (Array.of_list ri.ri_cls.G.c_scalars) in
  Ast.Cmp (cmp_for rng k, Ast.Path (path ri.ri_var [ f ]), Ast.Lit (G.value_of_scalar rng k))

(* A predicate through one or two reference steps, exercising the
   simplifier's Mat introduction. *)
let deep_atom rng spec ri =
  match ri.ri_cls.G.c_refs with
  | [] -> None
  | refs ->
    let rf, target = Prng.pick rng (Array.of_list refs) in
    let tcls = G.find_cls spec target in
    let steps, final =
      match tcls.G.c_refs with
      | (rf2, target2) :: _ when Prng.bool rng -> ([ rf; rf2 ], G.find_cls spec target2)
      | _ -> ([ rf ], tcls)
    in
    let f, k = Prng.pick rng (Array.of_list final.G.c_scalars) in
    Some
      (Ast.Cmp
         ( cmp_for rng k,
           Ast.Path (path ri.ri_var (steps @ [ f ])),
           Ast.Lit (G.value_of_scalar rng k) ))

let join_atom src_ri rf dst_ri =
  Ast.Cmp (Ast.Eq, Ast.Path (path src_ri.ri_var [ rf ]), Ast.Path (path dst_ri.ri_var []))

(* Join candidates touching an in-scope range: outgoing references from
   its class, and incoming references from any class pointing at it. *)
let join_cands spec ris =
  List.concat_map
    (fun ri ->
      List.map (fun (rf, target) -> `Out (ri, rf, target)) ri.ri_cls.G.c_refs
      @ List.concat_map
          (fun c ->
            List.filter_map
              (fun (rf, t) -> if t = ri.ri_cls.G.c_name then Some (`In (ri, rf, c)) else None)
              c.G.c_refs)
          spec.G.g_classes)
    ris

let exists_atom rng spec outer =
  let x = "x" in
  let inner cls where =
    { Ast.q_select = [];
      q_from =
        [ { Ast.r_class = None;
            r_var = x;
            r_src = Ast.Coll (G.coll_of cls.G.c_name);
            r_pos = Zql.Loc.none } ];
      q_where = where;
      q_order = None;
      q_setops = [] }
  in
  let referrers =
    List.filter
      (fun c -> List.exists (fun (_, t) -> t = outer.ri_cls.G.c_name) c.G.c_refs)
      spec.G.g_classes
  in
  match referrers with
  | [] ->
    (* no reference correlation available; correlate on the (universal)
       name field instead *)
    let others = List.filter (fun c -> c.G.c_name <> outer.ri_cls.G.c_name) spec.G.g_classes in
    (match others with
    | [] -> None
    | _ ->
      let cls = Prng.pick rng (Array.of_list others) in
      let corr =
        Ast.Cmp (Ast.Eq, Ast.Path (path x [ "name" ]), Ast.Path (path outer.ri_var [ "name" ]))
      in
      Some (Ast.Exists (inner cls (Some corr))))
  | _ ->
    let cls = Prng.pick rng (Array.of_list referrers) in
    let rf, _ = List.find (fun (_, t) -> t = outer.ri_cls.G.c_name) cls.G.c_refs in
    let corr = Ast.Cmp (Ast.Eq, Ast.Path (path x [ rf ]), Ast.Path (path outer.ri_var [])) in
    let extra = if Prng.bool rng then [ scalar_atom rng { ri_var = x; ri_cls = cls } ] else [] in
    Some (Ast.Exists (inner cls (conj (corr :: extra))))

(* The anchor lookup: an indexed, near-unique equality probe. Also the
   query whose plan flips under corrupted statistics (the effectiveness
   negative control). *)
let lookup_query rng spec =
  let a = G.anchor_cls spec in
  let k = Prng.int rng a.G.c_name_pool in
  { Ast.q_select = [];
    q_from = [ range { ri_var = "a"; ri_cls = a } ];
    q_where =
      Some
        (Ast.Cmp
           ( Ast.Eq,
             Ast.Path (path "a" [ "name" ]),
             Ast.Lit (Value.Str (Printf.sprintf "w%d" k)) ));
    q_order = None;
    q_setops = [] }

(* A multi-way join rooted at the anchor, guaranteed to offer the memo
   enough physically distinct plans for effectiveness sampling. *)
let rich_query rng spec =
  let a = G.anchor_cls spec in
  let r0 = { ri_var = var 0; ri_cls = a } in
  let ranges = ref [ r0 ] in
  let atoms = ref [] in
  List.iter
    (fun (rf, target) ->
      let nri = { ri_var = var (List.length !ranges); ri_cls = G.find_cls spec target } in
      ranges := !ranges @ [ nri ];
      atoms := join_atom r0 rf nri :: !atoms)
    a.G.c_refs;
  (* single outgoing reference: lengthen the chain one more hop *)
  (if List.length !ranges < 3 then
     match !ranges with
     | _ :: nri :: _ -> (
       match nri.ri_cls.G.c_refs with
       | (rf, target) :: _ ->
         let mri = { ri_var = var (List.length !ranges); ri_cls = G.find_cls spec target } in
         ranges := !ranges @ [ mri ];
         atoms := join_atom nri rf mri :: !atoms
       | [] -> ())
     | _ -> ());
  let k = Prng.int rng a.G.c_name_pool in
  atoms :=
    Ast.Cmp
      (Ast.Eq, Ast.Path (path r0.ri_var [ "name" ]), Ast.Lit (Value.Str (Printf.sprintf "w%d" k)))
    :: !atoms;
  { Ast.q_select = [];
    q_from = List.map range !ranges;
    q_where = conj !atoms;
    q_order = None;
    q_setops = [] }

(* A [width]-way chain join: every added range is linked to the newest
   in-scope range by one reference-equality atom, zigzagging between
   outgoing and incoming references as the schema allows (classes may
   repeat — self-join chains are the point). The join-order search space
   then grows with [width] alone, which makes this the scaling knob for
   the wide-join benchmarks and the search-scaling tests.
   Generated schemas always give the anchor class at least one outgoing
   reference, and any edge once used offers its reverse, so the chain
   always reaches the full width. *)
let join_chain_query ~width rng spec =
  let r0 = { ri_var = var 0; ri_cls = G.anchor_cls spec } in
  let ranges = ref [ r0 ] in
  let atoms = ref [] in
  let rec grow last =
    if List.length !ranges < width then
      match join_cands spec [ last ] with
      | [] -> ()
      | cands ->
        let i = List.length !ranges in
        let nri, atom =
          match Prng.pick rng (Array.of_list cands) with
          | `Out (ri, rf, target) ->
            let nri = { ri_var = var i; ri_cls = G.find_cls spec target } in
            (nri, join_atom ri rf nri)
          | `In (ri, rf, c) ->
            let nri = { ri_var = var i; ri_cls = c } in
            (nri, join_atom nri rf ri)
        in
        ranges := !ranges @ [ nri ];
        atoms := atom :: !atoms;
        grow nri
  in
  grow r0;
  { Ast.q_select = [];
    q_from = List.map range !ranges;
    q_where = conj (List.rev !atoms);
    q_order = None;
    q_setops = [] }

(* Set-operation branches must deliver identical scopes: identical FROM
   list, SELECT *, shared join atoms — only the depth-1 scalar
   predicates differ between branches. *)
let setop_query rng spec =
  let classes = Array.of_list spec.G.g_classes in
  let r0 = { ri_var = var 0; ri_cls = Prng.pick rng classes } in
  let ranges, shared =
    match join_cands spec [ r0 ] with
    | [] -> ([ r0 ], [])
    | cands when Prng.bool rng -> (
      match Prng.pick rng (Array.of_list cands) with
      | `Out (ri, rf, target) ->
        let r1 = { ri_var = var 1; ri_cls = G.find_cls spec target } in
        ([ r0; r1 ], [ join_atom ri rf r1 ])
      | `In (ri, rf, c) ->
        let r1 = { ri_var = var 1; ri_cls = c } in
        ([ r0; r1 ], [ join_atom r1 rf ri ]))
    | _ -> ([ r0 ], [])
  in
  let q_from = List.map range ranges in
  let branch () =
    let n = Prng.int_in rng 1 2 in
    let preds = List.init n (fun _ -> scalar_atom rng (Prng.pick rng (Array.of_list ranges))) in
    { Ast.q_select = [];
      q_from;
      q_where = conj (shared @ preds);
      q_order = None;
      q_setops = [] }
  in
  let head = branch () in
  let branches =
    List.init (Prng.int_in rng 1 2) (fun _ ->
        (Prng.pick rng [| Ast.Union; Ast.Intersect; Ast.Except |], branch ()))
  in
  { head with Ast.q_setops = branches }

let random_query rng spec =
  let classes = Array.of_list spec.G.g_classes in
  let r0 = { ri_var = var 0; ri_cls = Prng.pick rng classes } in
  let ranges = ref [ r0 ] in
  let atoms = ref [] in
  (* every added range comes with a join atom — no cross products *)
  for _ = 1 to Prng.int rng 3 do
    match join_cands spec !ranges with
    | [] -> ()
    | cands -> (
      let i = List.length !ranges in
      match Prng.pick rng (Array.of_list cands) with
      | `Out (ri, rf, target) ->
        let nri = { ri_var = var i; ri_cls = G.find_cls spec target } in
        ranges := !ranges @ [ nri ];
        atoms := join_atom ri rf nri :: !atoms
      | `In (ri, rf, c) ->
        let nri = { ri_var = var i; ri_cls = c } in
        ranges := !ranges @ [ nri ];
        atoms := join_atom nri rf ri :: !atoms)
  done;
  let set_cands =
    List.concat_map (fun ri -> List.map (fun (f, elem, _) -> (ri, f, elem)) ri.ri_cls.G.c_sets)
      !ranges
  in
  let unnest =
    if set_cands <> [] && Prng.int rng 3 = 0 then begin
      let ri, f, elem = Prng.pick rng (Array.of_list set_cands) in
      Some (ri, f, { ri_var = var (List.length !ranges); ri_cls = G.find_cls spec elem })
    end
    else None
  in
  let all_ris = !ranges @ (match unnest with Some (_, _, nri) -> [ nri ] | None -> []) in
  (* The transformation search space grows steeply with conjunct count
     (select-split subsets times push-down placements): measured on
     generated schemas, six conjuncts optimize in ~0.3-2.5s and seven in
     13-20s, with Mat-introducing deep predicates and EXISTS each
     costing about double a scalar. Queries stay under a fixed total
     weight — join atoms included — so a differential sweep over a dozen
     variants runs in seconds, not hours. *)
  let cap = 5 in
  let weight = ref (List.length !atoms) in
  let want_exists = Prng.int rng 4 = 0 && !weight + 2 <= cap in
  if want_exists then weight := !weight + 2;
  List.iter
    (fun ri ->
      for _ = 1 to Prng.int rng 3 do
        if !weight < cap then begin
          incr weight;
          atoms := scalar_atom rng ri :: !atoms
        end
      done;
      if !weight + 2 <= cap && Prng.int rng 4 = 0 then
        match deep_atom rng spec ri with
        | Some a ->
          weight := !weight + 2;
          atoms := a :: !atoms
        | None -> ())
    all_ris;
  if want_exists then begin
    let outer = Prng.pick rng (Array.of_list all_ris) in
    match exists_atom rng spec outer with Some a -> atoms := a :: !atoms | None -> ()
  end;
  let select =
    if Prng.bool rng then []
    else begin
      let items =
        List.init (Prng.int_in rng 1 2) (fun _ ->
            let ri = Prng.pick rng (Array.of_list all_ris) in
            let steps =
              if ri.ri_cls.G.c_refs <> [] && Prng.int rng 4 = 0 then begin
                let rf, _ = Prng.pick rng (Array.of_list ri.ri_cls.G.c_refs) in
                [ rf; "name" ]
              end
              else [ fst (Prng.pick rng (Array.of_list ri.ri_cls.G.c_scalars)) ]
            in
            (ri.ri_var, steps))
      in
      (* two draws can land on the same path, and the simplifier
         rejects a SELECT list that names an output column twice *)
      List.sort_uniq compare items
      |> List.map (fun (v, steps) -> { Ast.si_expr = Ast.Path (path v steps); si_as = None })
    end
  in
  let order =
    if select = [] && Prng.int rng 4 = 0 then begin
      let ri = Prng.pick rng (Array.of_list all_ris) in
      let f, _ = Prng.pick rng (Array.of_list ri.ri_cls.G.c_scalars) in
      Some (path ri.ri_var [ f ])
    end
    else None
  in
  { Ast.q_select = select;
    q_from =
      List.map range !ranges
      @ (match unnest with
        | Some (ri, f, nri) ->
          [ { Ast.r_class = None;
              r_var = nri.ri_var;
              r_src = Ast.Set_path (path ri.ri_var [ f ]);
              r_pos = Zql.Loc.none } ]
        | None -> []);
    q_where = conj !atoms;
    q_order = order;
    q_setops = [] }

let n_random = 3

let generate ?join_width rng cat spec =
  (* Every emitted query must simplify: the catalog is the authority on
     what a well-formed query is, so check here and retry rather than
     ship a generator bug to every downstream harness. Retries draw from
     the same stream, so generation stays deterministic. *)
  let checked name mk =
    let rec go attempts =
      let q = mk () in
      match Zql.Simplify.query_ordered cat q with
      | Ok _ -> q
      | Error e ->
        if attempts = 0 then
          failwith (Printf.sprintf "querygen: %s never simplified: %s" name e)
        else go (attempts - 1)
    in
    (name, go 8)
  in
  let fixed =
    checked "lookup" (fun () -> lookup_query rng spec)
    :: checked "rich" (fun () -> rich_query rng spec)
    :: checked "setop" (fun () -> setop_query rng spec)
    :: List.init n_random (fun i ->
           checked (Printf.sprintf "rand%d" i) (fun () -> random_query rng spec))
  in
  (* The wide chain is appended, never interleaved, so the default query
     set for a given (seed, index) is bit-identical with the knob off. *)
  match join_width with
  | Some width when width >= 2 ->
    fixed @ [ checked "wide" (fun () -> join_chain_query ~width rng spec) ]
  | _ -> fixed
