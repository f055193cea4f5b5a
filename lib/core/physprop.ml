module Bset = Set.Make (String)

type order = { ord_binding : string; ord_field : string option }

type t = {
  in_memory : Bset.t;
  order : order option;
}

let empty = { in_memory = Bset.empty; order = None }

let in_memory bs = { in_memory = Bset.of_list bs; order = None }

let with_order ord t = { t with order = Some ord }

let mem t b = Bset.mem b t.in_memory

let add b t = { t with in_memory = Bset.add b t.in_memory }

let remove b t = { t with in_memory = Bset.remove b t.in_memory }

let union a b = { in_memory = Bset.union a.in_memory b.in_memory; order = a.order }

let satisfies ~delivered ~required =
  Bset.subset required.in_memory delivered.in_memory
  && (match required.order with
     | None -> true
     | Some o -> delivered.order = Some o)

let equal a b = Bset.equal a.in_memory b.in_memory && a.order = b.order

let hash t =
  let base = Bset.fold (fun b acc -> (acc * 31) + Hashtbl.hash b) t.in_memory 17 in
  match t.order with None -> base | Some o -> (base * 31) + Hashtbl.hash o

let pp ppf t =
  Format.fprintf ppf "{mem: %s%s}"
    (String.concat ", " (Bset.elements t.in_memory))
    (match t.order with
    | None -> ""
    | Some { ord_binding; ord_field = Some f } ->
      Printf.sprintf "; order: %s.%s" ord_binding f
    | Some { ord_binding; ord_field = None } ->
      Printf.sprintf "; order: %s.self" ord_binding)
