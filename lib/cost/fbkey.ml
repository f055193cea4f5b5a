module Pred = Oodb_algebra.Pred
module Value = Oodb_storage.Value

(* Tagged serialization, like the plan-cache fingerprint's: distinct
   values must produce distinct keys ([Str "1"] vs [Int 1]). *)
let value_key v =
  let buf = Buffer.create 16 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let rec go = function
    | Value.Null -> add "null"
    | Value.Bool b -> add "bool:%b" b
    | Value.Int i -> add "int:%d" i
    | Value.Float f -> add "float:%h" f
    | Value.Str s -> add "str:%S" s
    | Value.Date d -> add "date:%d" d
    | Value.Ref oid -> add "ref:%d" oid
    | Value.Set vs ->
      add "set[";
      List.iter
        (fun v ->
          go v;
          add ";")
        vs;
      add "]"
  in
  go v;
  Buffer.contents buf

let cmp_tag = function
  | Pred.Eq -> "eq"
  | Pred.Ne -> "ne"
  | Pred.Lt -> "lt"
  | Pred.Le -> "le"
  | Pred.Gt -> "gt"
  | Pred.Ge -> "ge"

(* Operands are keyed by the CLASS of their binding, never the binding
   name or its provenance: binder names differ across queries, and
   provenance differs across memo forms of the same group (a Mat chain
   vs the join Mat-to-Join rewrites it into), while the typing
   invariant guarantees one class per group — so class-based keys make
   an override apply identically to every form. A binding whose class
   cannot be resolved yields no key (no feedback). *)
let operand_key ~env = function
  | Pred.Const v -> Some ("c:" ^ value_key v)
  | Pred.Field (b, f) ->
    Option.map
      (fun cls -> Printf.sprintf "f:%S.%S" cls f)
      (Lprops.class_of env b)
  | Pred.Self b -> Option.map (fun cls -> "s:" ^ cls) (Lprops.class_of env b)

let make cmp l r =
  let cmp, l, r =
    if String.compare l r <= 0 then (cmp, l, r) else (Pred.flip cmp, r, l)
  in
  Printf.sprintf "%s(%s|%s)" (cmp_tag cmp) l r

let atom ~env (a : Pred.atom) =
  match operand_key ~env a.Pred.lhs, operand_key ~env a.Pred.rhs with
  | Some l, Some r -> Some (make a.Pred.cmp l r)
  | _ -> None

let fanout ~cls ~field = Printf.sprintf "%S.%S" cls field
