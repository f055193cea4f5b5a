module Value = Oodb_storage.Value
module Catalog = Oodb_catalog.Catalog
module Schema = Oodb_catalog.Schema
module Logical = Oodb_algebra.Logical
module Pred = Oodb_algebra.Pred

exception Simplify_error of string

let error fmt = Format.kasprintf (fun m -> raise (Simplify_error m)) fmt

(* Errors that can be traced to a source token carry its location;
   [Loc.none] (synthesized AST nodes) degrades to the bare message. *)
let error_at (loc : Loc.t) fmt =
  Format.kasprintf
    (fun m ->
      raise (Simplify_error (if Loc.is_none loc then m else Loc.to_string loc ^ ": " ^ m)))
    fmt

let pos_of_expr = function
  | Ast.Path p -> p.Ast.p_pos
  | Ast.Lit _ -> Loc.none

type state = {
  cat : Catalog.t;
  mutable tree : Logical.t;
  mutable env : (string * string) list; (* binding -> class, in scope order *)
  mutable mats : string list; (* Mat output bindings already introduced *)
}

let schema st = Catalog.schema st.cat

let class_of ?(at = Loc.none) st b =
  match List.assoc_opt b st.env with
  | Some cls -> cls
  | None -> error_at at "unknown range variable %s" b

let bind ?(at = Loc.none) st b cls =
  if List.mem_assoc b st.env then error_at at "range variable %s defined twice" b;
  st.env <- st.env @ [ (b, cls) ]

(* Introduce [Mat src.field] (once) and return the output binding. *)
let add_mat ?(at = Loc.none) st ~src ~field =
  let out = src ^ "." ^ field in
  if not (List.mem out st.mats) then begin
    st.tree <- Logical.mat ~out ~src ~field st.tree;
    st.mats <- out :: st.mats;
    let cls = class_of ~at st src in
    match Schema.follow (schema st) ~cls field with
    | Some target -> bind ~at st out target
    | None -> error_at at "%s.%s is not a reference" cls field
  end;
  out

(* Resolve all but the last step of a path to a binding holding the
   object the last step applies to; intermediate steps must be
   single-valued references and introduce Mats. *)
let resolve_prefix st (p : Ast.path) =
  let at = p.Ast.p_pos in
  List.fold_left
    (fun binding step ->
      let cls = class_of ~at st binding in
      match Schema.attr_ty (schema st) ~cls step with
      | Some (Schema.Ref _) -> add_mat ~at st ~src:binding ~field:step
      | Some ty ->
        error_at at "path step %s.%s has type %a, expected a single-valued reference" binding
          step Schema.pp_attr_ty ty
      | None -> error_at at "class %s has no attribute %s" cls step)
    p.Ast.p_root
    (match p.Ast.p_steps with [] -> [] | steps -> List.filteri (fun i _ -> i < List.length steps - 1) steps)

let last_step (p : Ast.path) =
  match List.rev p.Ast.p_steps with [] -> None | last :: _ -> Some last

(* Scalar type of an operand, for comparability checking. *)
type sty = S_bool | S_num | S_str | S_date | S_obj of string

let sty_of_attr = function
  | Schema.Bool -> S_bool
  | Schema.Int | Schema.Float -> S_num
  | Schema.String -> S_str
  | Schema.Date -> S_date
  | Schema.Ref cls -> S_obj cls
  | Schema.Set_of _ -> error "set-valued component used in scalar position"

let sty_of_lit = function
  | Value.Bool _ -> S_bool
  | Value.Int _ | Value.Float _ -> S_num
  | Value.Str _ -> S_str
  | Value.Date _ -> S_date
  | Value.Null | Value.Ref _ | Value.Set _ -> error "unsupported literal"

(* Translate an expression to a predicate operand, introducing Mats for
   intermediate path links. *)
let operand st = function
  | Ast.Lit v -> (Pred.Const v, sty_of_lit v)
  | Ast.Path p -> (
    let at = p.Ast.p_pos in
    match last_step p with
    | None -> (Pred.Self p.Ast.p_root, S_obj (class_of ~at st p.Ast.p_root))
    | Some last ->
      let binding = resolve_prefix st p in
      let cls = class_of ~at st binding in
      (match Schema.attr_ty (schema st) ~cls last with
      | None -> error_at at "class %s has no attribute %s" cls last
      | Some ty -> (Pred.Field (binding, last), sty_of_attr ty)))

let compatible a b =
  match a, b with
  | S_bool, S_bool | S_num, S_num | S_str, S_str | S_date, S_date -> true
  | S_obj c1, S_obj c2 -> c1 = c2
  | _ -> false

let cmp_of = function
  | Ast.Eq -> Pred.Eq
  | Ast.Ne -> Pred.Ne
  | Ast.Lt -> Pred.Lt
  | Ast.Le -> Pred.Le
  | Ast.Gt -> Pred.Gt
  | Ast.Ge -> Pred.Ge

let fresh_ref_binding v = "&" ^ v

let rec add_range st (r : Ast.range) ~first =
  let at = r.Ast.r_pos in
  match r.Ast.r_src with
  | Ast.Coll coll -> (
    match Catalog.find_collection st.cat coll with
    | None -> error_at at "unknown collection %s" coll
    | Some co ->
      (match r.Ast.r_class with
      | Some cls when cls <> co.Catalog.co_class ->
        error_at at "collection %s contains %s objects, not %s" coll co.Catalog.co_class cls
      | Some _ | None -> ());
      let get = Logical.get ~coll ~binding:r.Ast.r_var in
      if first then st.tree <- get
      else st.tree <- Logical.join [] st.tree get;
      bind ~at st r.Ast.r_var co.Catalog.co_class)
  | Ast.Set_path p ->
    if first then error_at at "the first range must be over a collection";
    let last =
      match last_step p with
      | Some l -> l
      | None -> error_at at "set-valued range %s is not a path" p.Ast.p_root
    in
    let prefix = resolve_prefix st p in
    let cls = class_of ~at:p.Ast.p_pos st prefix in
    (match Schema.attr_ty (schema st) ~cls last with
    | Some (Schema.Set_of (Schema.Ref target)) ->
      (match r.Ast.r_class with
      | Some ann when ann <> target ->
        error_at at "%s.%s contains %s objects, not %s" prefix last target ann
      | Some _ | None -> ());
      let ref_binding = fresh_ref_binding r.Ast.r_var in
      st.tree <- Logical.unnest ~out:ref_binding ~src:prefix ~field:last st.tree;
      bind ~at st ref_binding target;
      (* materialize the revealed references, as in the paper's Fig. 3 *)
      st.tree <- Logical.mat_ref ~out:r.Ast.r_var ~src:ref_binding st.tree;
      bind ~at st r.Ast.r_var target
    | Some ty ->
      error_at at "%s.%s has type %a, expected a set of references" prefix last
        Schema.pp_attr_ty ty
    | None -> error_at at "class %s has no attribute %s" cls last)

(* Flatten a condition into predicate atoms, inlining EXISTS subqueries
   by appending their ranges (witness-pair semantics). *)
and atoms_of_cond st cond =
  Ast.conjuncts cond
  |> List.concat_map (function
       | Ast.Cmp (op, l, r) ->
         let lo, lt = operand st l in
         let ro, rt = operand st r in
         if not (compatible lt rt) then begin
           let at = if Loc.is_none (pos_of_expr l) then pos_of_expr r else pos_of_expr l in
           error_at at "incomparable operands in %a" Ast.pp_cond (Ast.Cmp (op, l, r))
         end;
         [ Pred.atom (cmp_of op) lo ro ]
       | Ast.And _ -> assert false (* flattened by conjuncts *)
       | Ast.Exists q ->
         if q.Ast.q_setops <> [] then
           error "set operations are not supported inside EXISTS";
         List.iter (fun r -> add_range st r ~first:false) q.Ast.q_from;
         (match q.Ast.q_where with
         | None -> []
         | Some c -> atoms_of_cond st c))

(* A repeated output name would make an ill-typed Project: report the
   first SELECT item whose name an earlier item already has. [items] and
   [projs] run in step and [all] is the whole projection list. The lists
   are a few items long, so each name is compared with the ones before
   it, with no table: text is compiled on every query. *)
let rec check_distinct all items (projs : Logical.proj list) =
  match items, projs with
  | (si : Ast.select_item) :: items, p :: projs ->
    if named_before p all then
      error_at (pos_of_expr si.Ast.si_expr) "duplicate output column %s" p.Logical.p_name;
    check_distinct all items projs
  | _ -> ()

(* Whether a projection ahead of [p] in the list has [p]'s name. *)
and named_before (p : Logical.proj) = function
  | q :: qs when q != p -> String.equal q.Logical.p_name p.Logical.p_name || named_before p qs
  | _ -> false

type compiled = {
  c_logical : Logical.t;
  c_order : (string * string option) option;
}

(* Compile one SELECT block (the set-operation branches of [q] are the
   caller's concern). Raises [Simplify_error]. *)
let compile_core cat (q : Ast.query) =
    let st =
      { cat;
        tree = Logical.get ~coll:"?" ~binding:"?" (* replaced by the first range *);
        env = [];
        mats = [] }
    in
    (match q.Ast.q_from with
    | [] -> error "empty FROM clause"
    | first :: rest ->
      add_range st first ~first:true;
      List.iter (fun r -> add_range st r ~first:false) rest);
    let atoms = match q.Ast.q_where with None -> [] | Some c -> atoms_of_cond st c in
    if atoms <> [] then st.tree <- Logical.select atoms st.tree;
    (match q.Ast.q_select with
    | [] -> () (* SELECT *: deliver the full scope *)
    | items ->
      let projs =
        List.map
          (fun (si : Ast.select_item) ->
            let op, _ = operand st si.Ast.si_expr in
            let default_name =
              match si.Ast.si_expr with
              | Ast.Path p -> String.concat "." (p.Ast.p_root :: p.Ast.p_steps)
              | Ast.Lit v -> Value.to_string v
            in
            { Logical.p_expr = op;
              p_name = (match si.Ast.si_as with Some n -> n | None -> default_name) })
          items
      in
      check_distinct projs items projs;
      st.tree <- Logical.project projs st.tree);
    let order =
      match q.Ast.q_order with
      | None -> None
      | Some p -> (
        let at = p.Ast.p_pos in
        match last_step p with
        | None ->
          if not (List.mem p.Ast.p_root (Logical.scope st.tree)) then
            error_at at "ORDER BY %s: not in the query result" p.Ast.p_root;
          Some (p.Ast.p_root, None)
        | Some last ->
          let binding = resolve_prefix st p in
          let cls = class_of ~at st binding in
          (match Schema.attr_ty (schema st) ~cls last with
          | None -> error_at at "class %s has no attribute %s" cls last
          | Some (Schema.Set_of _) -> error_at at "cannot ORDER BY a set-valued component"
          | Some _ -> ());
          if not (List.mem binding (Logical.scope st.tree)) then
            error_at at "ORDER BY %a: %s is not in the query result" Ast.pp_path p binding;
          Some (binding, Some last))
    in
    (st.tree, order)

(* Where a query starts: its first range. *)
let query_loc (q : Ast.query) =
  match q.Ast.q_from with r :: _ -> r.Ast.r_pos | [] -> Loc.none

(* The checks a set-operation branch must pass before it compiles. A
   set operation combines whole range variables: over a SELECT list it
   would be a Union of projections, which the algebra does not type. *)
let check_branch (q : Ast.query) =
  (match q.Ast.q_order with
  | Some p -> error_at p.Ast.p_pos "ORDER BY cannot be combined with set operations"
  | None -> ());
  (match q.Ast.q_setops with
  | (_, nested) :: _ ->
    error_at (query_loc nested) "nested set-operation branches are not supported"
  | [] -> ());
  match q.Ast.q_select with
  | si :: _ ->
    let at = pos_of_expr si.Ast.si_expr in
    error_at (if Loc.is_none at then query_loc q else at)
      "a set operation takes SELECT * branches, not a SELECT list"
  | [] -> ()

let query_ordered cat (q : Ast.query) =
  match
    let tree, order = compile_core cat q in
    let tree =
      match q.Ast.q_setops with
      | [] -> tree
      | branches ->
        check_branch { q with Ast.q_setops = [] };
        let scope = Logical.scope tree in
        List.fold_left
          (fun acc (op, rhs) ->
            check_branch rhs;
            let rhs_tree, _ = compile_core cat rhs in
            if Logical.scope rhs_tree <> scope then
              error_at (query_loc rhs)
                "set-operation branches deliver different scopes (%s vs %s)"
                (String.concat ", " scope)
                (String.concat ", " (Logical.scope rhs_tree));
            match op with
            | Ast.Union -> Logical.union acc rhs_tree
            | Ast.Intersect -> Logical.intersect acc rhs_tree
            | Ast.Except -> Logical.difference acc rhs_tree)
          tree branches
    in
    match Logical.well_formed cat tree with
    | Ok () -> { c_logical = tree; c_order = order }
    | Error msg -> error_at (query_loc q) "internal simplification bug: %s" msg
  with
  | compiled -> Ok compiled
  | exception Simplify_error msg -> Result.Error msg

let query cat q = Result.map (fun c -> c.c_logical) (query_ordered cat q)

let compile cat input =
  match Parser.parse input with
  | Error msg -> Error ("parse error: " ^ msg)
  | Ok ast -> query cat ast

let compile_ordered cat input =
  match Parser.parse input with
  | Error msg -> Error ("parse error: " ^ msg)
  | Ok ast -> query_ordered cat ast

let compile_exn cat input =
  match compile cat input with
  | Ok t -> t
  | Error msg -> invalid_arg ("ZQL: " ^ msg)
