module Value = Oodb_storage.Value
module Store = Oodb_storage.Store
module Pred = Oodb_algebra.Pred

let compile_operand = function
  | Pred.Const v -> fun _ -> v
  | Pred.Self b ->
    let ix = Env.index b in
    fun env -> Value.Ref (Env.oid_at ix env)
  | Pred.Field (b, f) ->
    let ix = Env.index b and hint = Store.hint f in
    fun env -> (
      let o = Env.obj_at ix env in
      match Store.field_hinted hint o with v -> v | exception Not_found -> Value.Null)

let ordered l r = match l, r with Value.Null, _ | _, Value.Null -> false | _ -> true

let compile_atom (a : Pred.atom) =
  let lhs = compile_operand a.Pred.lhs and rhs = compile_operand a.Pred.rhs in
  match a.Pred.cmp with
  | Pred.Eq ->
    fun env ->
      let l = lhs env and r = rhs env in
      Value.equal l r
  | Pred.Ne ->
    fun env ->
      let l = lhs env and r = rhs env in
      not (Value.equal l r)
  | Pred.Lt ->
    fun env ->
      let l = lhs env and r = rhs env in
      ordered l r && Value.compare l r < 0
  | Pred.Le ->
    fun env ->
      let l = lhs env and r = rhs env in
      ordered l r && Value.compare l r <= 0
  | Pred.Gt ->
    fun env ->
      let l = lhs env and r = rhs env in
      ordered l r && Value.compare l r > 0
  | Pred.Ge ->
    fun env ->
      let l = lhs env and r = rhs env in
      ordered l r && Value.compare l r >= 0

let compile_pred atoms =
  let rec all env = function [] -> true | a :: rest -> a env && all env rest in
  match List.map compile_atom atoms with
  | [] -> fun _ -> true
  | [ a ] -> a
  | compiled -> fun env -> all env compiled
