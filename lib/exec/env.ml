module Value = Oodb_storage.Value

exception Not_materialized of string

exception Unbound of string

type schema = string array

(* The OID shifted left one bit, with the low bit set when the object
   is in memory. *)
type slot = int

type t = { schema : schema; slots : slot array }

let make schema slots = { schema; slots }

let empty = { schema = [||]; slots = [||] }

let in_memory oid = (oid lsl 1) lor 1

let reference oid = oid lsl 1

let slot_oid s = s asr 1

let is_in_memory s = s land 1 = 1

let rec any_in_memory slots positions k =
  k < Array.length positions
  && (is_in_memory slots.(positions.(k)) || any_in_memory slots positions (k + 1))

let demote t positions =
  if not (any_in_memory t.slots positions 0) then t
  else begin
    let slots = Array.copy t.slots in
    Array.iter (fun i -> slots.(i) <- slots.(i) land lnot 1) positions;
    { t with slots }
  end

let replace t i s =
  let slots = Array.copy t.slots in
  slots.(i) <- s;
  { t with slots }

let extend schema t s =
  let n = Array.length t.slots in
  let slots = Array.make (n + 1) s in
  Array.blit t.slots 0 slots 0 n;
  { schema; slots }

let concat schema a b = { schema; slots = Array.append a.slots b.slots }

let select schema positions t = { schema; slots = Array.map (fun i -> t.slots.(i)) positions }

let extend_schema schema b = Array.append schema [| b |]

let position schema b =
  let rec go i =
    if i >= Array.length schema then -1 else if String.equal schema.(i) b then i else go (i + 1)
  in
  go 0

let positions p schema =
  Array.of_list (List.filter (fun i -> p schema.(i)) (List.init (Array.length schema) Fun.id))

(* ------------------------------------------------------------------ *)
(* Per-schema resolution *)

(* A handful of entries covers every operator input: one schema per
   stream, two for a set operation's output, a few when an index scan
   leaves some deref bindings unbound. Past the cap the oldest entry is
   dropped, which costs a recomputation, never a wrong answer. *)
let memo_entries = 8

type 'a memo = { compute : schema -> 'a; mutable entries : (schema * 'a) list }

let memo compute = { compute; entries = [] }

let rec find m schema = function
  | (s, v) :: rest -> if s == schema then v else find m schema rest
  | [] ->
    let v = m.compute schema in
    m.entries <- (schema, v) :: List.filteri (fun i _ -> i < memo_entries - 1) m.entries;
    v

let get m schema = find m schema m.entries

type index = { name : string; mutable resolved_for : schema; mutable pos : int }

(* A fresh array: physically distinct from every schema. *)
let index name = { name; resolved_for = [| name |]; pos = -1 }

let slot_at ix t =
  if t.schema != ix.resolved_for then begin
    ix.resolved_for <- t.schema;
    ix.pos <- position t.schema ix.name
  end;
  if ix.pos < 0 then raise (Unbound ix.name) else t.slots.(ix.pos)

let oid_at ix t = slot_oid (slot_at ix t)

let obj_at ix t =
  let s = slot_at ix t in
  if is_in_memory s then slot_oid s else raise (Not_materialized ix.name)

(* ------------------------------------------------------------------ *)
(* By binding name *)

let bind_obj t b oid = extend (extend_schema t.schema b) t (in_memory oid)

let bind_ref t b oid = extend (extend_schema t.schema b) t (reference oid)

let lookup t b =
  let i = position t.schema b in
  if i < 0 then None else Some t.slots.(i)

let oid t b = match lookup t b with Some s -> slot_oid s | None -> raise (Unbound b)

let obj t b =
  match lookup t b with
  | None -> raise (Unbound b)
  | Some s -> if is_in_memory s then slot_oid s else raise (Not_materialized b)

let bindings t = Array.to_list t.schema

let narrow t bs =
  let kept = positions (fun b -> List.mem b bs) t.schema in
  select (Array.map (fun i -> t.schema.(i)) kept) kept t
