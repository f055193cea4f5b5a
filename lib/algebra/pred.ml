module Value = Oodb_storage.Value

type operand =
  | Const of Value.t
  | Field of string * string
  | Self of string

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type atom = { cmp : cmp; lhs : operand; rhs : operand }

type t = atom list

let atom cmp lhs rhs = { cmp; lhs; rhs }

let bindings_of_operand = function
  | Const _ -> []
  | Field (b, _) -> [ b ]
  | Self b -> [ b ]

let bindings_of_atom a = bindings_of_operand a.lhs @ bindings_of_operand a.rhs

(* Binding lists here hold a handful of names: a list scan beats
   allocating a hash table per call. *)
let dedup bs =
  List.rev (List.fold_left (fun seen b -> if List.mem b seen then seen else b :: seen) [] bs)

let bindings t = dedup (List.concat_map bindings_of_atom t)

let memory_bindings_of_operand = function
  | Const _ | Self _ -> []
  | Field (b, _) -> [ b ]

let memory_bindings t =
  dedup
    (List.concat_map
       (fun a -> memory_bindings_of_operand a.lhs @ memory_bindings_of_operand a.rhs)
       t)

let rename_operand f = function
  | Const _ as c -> c
  | Field (b, fld) -> Field (f b, fld)
  | Self b -> Self (f b)

let rename f t =
  List.map (fun a -> { a with lhs = rename_operand f a.lhs; rhs = rename_operand f a.rhs }) t

let ref_eq_sides a =
  match a.cmp, a.lhs, a.rhs with
  | Eq, Field (src, field), Self target | Eq, Self target, Field (src, field) ->
    Some (src, field, target)
  | _ -> None

let flip = function Eq -> Eq | Ne -> Ne | Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le

let compare_operand a b = Stdlib.compare a b

let compare_atom a b =
  let c = Stdlib.compare a.cmp b.cmp in
  if c <> 0 then c
  else
    let c = compare_operand a.lhs b.lhs in
    if c <> 0 then c else compare_operand a.rhs b.rhs

let compare = List.compare compare_atom

let equal a b = compare a b = 0

(* Canonical conjunct order (sorted, duplicates removed). Rules that
   recombine predicates — pushing selections into joins, redistributing
   atoms across an associativity rewrite — must emit normalized lists:
   the memo interns operators structurally, so the same atom set in two
   list orders would otherwise populate a group with spuriously distinct
   multi-expressions (measured 7x memo blowup on 8-way join chains). *)
let normalize t = List.sort_uniq compare_atom t

let pp_operand ppf = function
  | Const v -> Value.pp ppf v
  | Field (b, f) -> Format.fprintf ppf "%s.%s" b f
  | Self b -> Format.fprintf ppf "%s.self" b

let cmp_name = function
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let pp_atom ppf a =
  Format.fprintf ppf "%a %s %a" pp_operand a.lhs (cmp_name a.cmp) pp_operand a.rhs

let pp ppf = function
  | [] -> Format.pp_print_string ppf "true"
  | atoms ->
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " && ")
      pp_atom ppf atoms

let to_string t = Format.asprintf "%a" pp t
