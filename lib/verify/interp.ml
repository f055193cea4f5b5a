(* Reference denotational interpreter for the logical algebra.

   Deliberately the dumbest possible evaluator — list comprehensions
   over object stores, nested-loop joins, no indexes, no batching, no
   buffer pool — so it is easy to audit against the algebra's intended
   semantics and independent of every optimizer and executor decision.
   The rule certifier uses it as ground truth: two logically equivalent
   expressions must produce identical row multisets here, and an
   executed physical plan must reproduce what the interpreter says about
   the query it implements.

   Semantics mirrored from the execution engine where the algebra leaves
   latitude: a Mat over a Null reference drops the row (pointer-join
   behaviour), Unnest of a Null set is empty, missing fields evaluate to
   Null, ordered comparisons with Null are false, and the set operations
   deduplicate their output (hash-union/intersect/difference
   behaviour). *)

module Value = Oodb_storage.Value
module Store = Oodb_storage.Store
module Db = Oodb_exec.Db
module Logical = Oodb_algebra.Logical
module Pred = Oodb_algebra.Pred

type env = (string * Value.oid) list (* binding -> oid, scope order *)

let field_of store oid f =
  match Store.field store oid f with
  | v -> v
  | exception Not_found -> Value.Null

let operand store env = function
  | Pred.Const v -> v
  | Pred.Self b -> Value.Ref (List.assoc b env)
  | Pred.Field (b, f) -> field_of store (List.assoc b env) f

let atom store env (a : Pred.atom) =
  let l = operand store env a.Pred.lhs and r = operand store env a.Pred.rhs in
  match a.Pred.cmp with
  | Pred.Eq -> Value.equal l r
  | Pred.Ne -> not (Value.equal l r)
  | Pred.Lt -> l <> Value.Null && r <> Value.Null && Value.compare l r < 0
  | Pred.Le -> l <> Value.Null && r <> Value.Null && Value.compare l r <= 0
  | Pred.Gt -> l <> Value.Null && r <> Value.Null && Value.compare l r > 0
  | Pred.Ge -> l <> Value.Null && r <> Value.Null && Value.compare l r >= 0

let pred store env atoms = List.for_all (atom store env) atoms

(* Set operations compare rows as binding->oid maps, independent of the
   scope order either side happened to be built with. *)
let canon env = List.sort (fun (a, _) (b, _) -> String.compare a b) env

let dedup envs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun e ->
      let k = canon e in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    envs

let rec eval store (e : Logical.t) : env list =
  match e.Logical.op, e.Logical.inputs with
  | Logical.Get { coll; binding }, [] ->
    List.map (fun o -> [ (binding, o) ]) (Store.oids store ~coll)
  | Logical.Select p, [ i ] -> List.filter (fun env -> pred store env p) (eval store i)
  | Logical.Project ps, [ i ] ->
    let used =
      List.concat_map (fun (p : Logical.proj) -> Pred.bindings_of_operand p.Logical.p_expr) ps
    in
    List.map (fun env -> List.filter (fun (b, _) -> List.mem b used) env) (eval store i)
  | Logical.Join p, [ l; r ] ->
    let rights = eval store r in
    List.concat_map
      (fun el ->
        List.filter_map
          (fun er ->
            let env = el @ er in
            if pred store env p then Some env else None)
          rights)
      (eval store l)
  | Logical.Cross, [ l; r ] ->
    let rights = eval store r in
    List.concat_map (fun el -> List.map (fun er -> el @ er) rights) (eval store l)
  | Logical.Mat { src; field; out }, [ i ] ->
    List.filter_map
      (fun env ->
        let target =
          match field with
          | None -> Some (List.assoc src env)
          | Some f -> Value.as_ref (field_of store (List.assoc src env) f)
        in
        Option.map (fun oid -> env @ [ (out, oid) ]) target)
      (eval store i)
  | Logical.Unnest { src; field; out }, [ i ] ->
    List.concat_map
      (fun env ->
        Value.set_elements (field_of store (List.assoc src env) field)
        |> List.filter_map Value.as_ref
        |> List.map (fun oid -> env @ [ (out, oid) ]))
      (eval store i)
  | Logical.Union, [ l; r ] -> dedup (eval store l @ eval store r)
  | Logical.Intersect, [ l; r ] ->
    let rights = Hashtbl.create 64 in
    List.iter (fun e -> Hashtbl.replace rights (canon e) ()) (eval store r);
    dedup (List.filter (fun e -> Hashtbl.mem rights (canon e)) (eval store l))
  | Logical.Difference, [ l; r ] ->
    let rights = Hashtbl.create 64 in
    List.iter (fun e -> Hashtbl.replace rights (canon e) ()) (eval store r);
    dedup (List.filter (fun e -> not (Hashtbl.mem rights (canon e))) (eval store l))
  | _ -> invalid_arg "Interp.eval: malformed expression (wrong arity)"

type row = (string * Value.t) list

(* Same row extraction convention as Executor.rows_of: a root projection
   evaluates its columns, any other root yields binding/reference
   pairs. *)
let rows db (e : Logical.t) : row list =
  let store = Db.store db in
  let envs = eval store e in
  match e.Logical.op with
  | Logical.Project ps ->
    List.map
      (fun env ->
        List.map
          (fun (p : Logical.proj) -> (p.Logical.p_name, operand store env p.Logical.p_expr))
          ps)
      envs
  | _ -> List.map (List.map (fun (b, o) -> (b, Value.Ref o))) envs

(* Canonical multiset form: order of rows and of columns within a row is
   not semantically significant. *)
let canon_rows rows =
  rows
  |> List.map (List.sort (fun (a, _) (b, _) -> String.compare a b))
  |> List.sort
       (List.compare (fun (k1, v1) (k2, v2) ->
            let c = String.compare k1 k2 in
            if c <> 0 then c else Value.compare v1 v2))

let same_rows a b = canon_rows a = canon_rows b

let pp_row ppf row =
  Format.fprintf ppf "{%s}"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (Value.to_string v)) row))

let pp_rows ppf rows =
  match rows with
  | [] -> Format.pp_print_string ppf "(empty)"
  | rows ->
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
      pp_row ppf rows
