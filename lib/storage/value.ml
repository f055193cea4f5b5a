type oid = int

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Date of int
  | Ref of oid
  | Set of t list

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 2 (* numeric values compare with each other *)
  | Str _ -> 3
  | Date _ -> 4
  | Ref _ -> 5
  | Set _ -> 6

let rec compare a b =
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | Date x, Date y -> Int.compare x y
  | Ref x, Ref y -> Int.compare x y
  | Set x, Set y -> List.compare compare x y
  | _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* Ints and floats compare numerically with each other, so equal
   numbers must hash alike across the two constructors. Below 2^53 in
   magnitude every int is exactly a float, so an integral float hashes
   through its int value; from 2^53 on, an int equals at most the float
   it rounds to, so it hashes through that float image. *)
let exact_float_bound = 0x20000000000000 (* 2^53 *)

let rec hash = function
  | Null -> 17
  | Bool b -> if b then 3 else 5
  | Int i ->
    if i >= exact_float_bound || i <= -exact_float_bound then Hashtbl.hash (float_of_int i)
    else Hashtbl.hash i
  | Float f ->
    if Float.is_integer f && Float.abs f < float_of_int exact_float_bound then
      Hashtbl.hash (int_of_float f)
    else Hashtbl.hash f
  | Str s -> Hashtbl.hash s
  | Date d -> Hashtbl.hash (d + 0x5bd1)
  | Ref o -> Hashtbl.hash (o + 0x9e37)
  | Set vs -> List.fold_left (fun acc v -> (acc * 31) + hash v) 7 vs

let rec pp ppf = function
  | Null -> Format.pp_print_string ppf "null"
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.fprintf ppf "%S" s
  | Date d -> Format.fprintf ppf "date:%d" d
  | Ref o -> Format.fprintf ppf "@@%d" o
  | Set vs ->
    Format.fprintf ppf "{%a}" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ") pp) vs

let to_string v = Format.asprintf "%a" pp v

let date_of_ymd y m d = ((y - 1900) * 372) + ((m - 1) * 31) + (d - 1)

let as_ref = function Ref o -> Some o | Null | Bool _ | Int _ | Float _ | Str _ | Date _ | Set _ -> None

let set_elements = function
  | Set vs -> vs
  | Null -> []
  | Bool _ | Int _ | Float _ | Str _ | Date _ | Ref _ ->
    invalid_arg "Value.set_elements: not a set"
