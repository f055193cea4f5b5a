module Value = Oodb_storage.Value
module Store = Oodb_storage.Store
module Pred = Oodb_algebra.Pred

(* Where a compiled operand finds, in its input, the OID a binding names
   ([oid]) and the object whose fields it reads, which must be in memory
   ([obj]). *)
type 'a source = { oid : string -> 'a -> Value.oid; obj : string -> 'a -> Value.oid }

let tuples =
  { oid = (fun b -> Env.oid_at (Env.index b));
    obj = (fun b -> Env.obj_at (Env.index b)) }

(* One fetched object, bound to [binding]. *)
let fetched binding =
  let own b = if String.equal b binding then Fun.id else fun _ -> raise (Env.Unbound b) in
  { oid = own; obj = own }

let operand store src = function
  | Pred.Const v -> fun _ -> v
  | Pred.Self b ->
    let oid = src.oid b in
    fun x -> Value.Ref (oid x)
  | Pred.Field (b, f) ->
    let obj = src.obj b and col = Store.reader store f in
    fun x -> Store.get col (obj x)

let compile_operand store op = operand store tuples op

let ordered l r = match l, r with Value.Null, _ | _, Value.Null -> false | _ -> true

let value_test = function
  | Pred.Eq -> Value.equal
  | Pred.Ne -> fun l r -> not (Value.equal l r)
  | Pred.Lt -> fun l r -> ordered l r && Value.compare l r < 0
  | Pred.Le -> fun l r -> ordered l r && Value.compare l r <= 0
  | Pred.Gt -> fun l r -> ordered l r && Value.compare l r > 0
  | Pred.Ge -> fun l r -> ordered l r && Value.compare l r >= 0

(* The same tests on [Store.compare_cell]'s answer, which is never
   [Store.null] for two non-Null values. *)
let compared_test = function
  | Pred.Eq -> fun c -> c = 0
  | Pred.Ne -> fun c -> c <> 0
  | Pred.Lt -> fun c -> c <> Store.null && c < 0
  | Pred.Le -> fun c -> c <> Store.null && c <= 0
  | Pred.Gt -> fun c -> c > 0
  | Pred.Ge -> fun c -> c >= 0

let flip = function
  | Pred.Eq -> Pred.Eq
  | Pred.Ne -> Pred.Ne
  | Pred.Lt -> Pred.Gt
  | Pred.Le -> Pred.Ge
  | Pred.Gt -> Pred.Lt
  | Pred.Ge -> Pred.Le

(* [b.f cmp v]: a field compared with a non-Null constant compares in
   its column, unboxed. *)
let field_test store src b f cmp v =
  let obj = src.obj b and col = Store.reader store f in
  match v with
  | Value.Null ->
    let test = value_test cmp in
    fun x -> test (Store.get col (obj x)) v
  | _ ->
    let holds = compared_test cmp in
    fun x -> holds (Store.compare_cell col (obj x) v)

let atom store src (a : Pred.atom) =
  match a.Pred.lhs, a.Pred.rhs with
  | Pred.Field (b, f), Pred.Const v -> field_test store src b f a.Pred.cmp v
  | Pred.Const v, Pred.Field (b, f) -> field_test store src b f (flip a.Pred.cmp) v
  | lhs, rhs ->
    let lhs = operand store src lhs and rhs = operand store src rhs and test = value_test a.Pred.cmp in
    fun x -> test (lhs x) (rhs x)

let conjunction store src atoms =
  let rec all x = function [] -> true | a :: rest -> a x && all x rest in
  match List.map (atom store src) atoms with
  | [] -> fun _ -> true
  | [ a ] -> a
  | compiled -> fun x -> all x compiled

let compile_atom store a = atom store tuples a

let compile_pred store atoms = conjunction store tuples atoms

let compile_fetched_pred store binding atoms = conjunction store (fetched binding) atoms
