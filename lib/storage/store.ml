module Vec = Oodb_util.Vec

type obj = {
  oid : Value.oid;
  cls : string;
  coll : string;
  names : string array;
  values : Value.t array;
}

type coll_info = {
  c_name : string;
  c_cls : string;
  c_obj_bytes : int;
  c_seg : Disk.segment;
  c_per_page : int;       (* objects per page; 1 when objects span pages *)
  c_pages_per_obj : int;  (* pages per object; 1 when objects share pages *)
  c_members : obj Vec.t;  (* slot order *)
  mutable c_layouts : string array list; (* interned [names] arrays, newest first *)
}

(* Where an object lives: its collection and slot index. *)
type place = { p_obj : obj; p_coll : coll_info; p_slot : int }

type t = {
  disk : Disk.t;
  buffer : Buffer_pool.t;
  colls : (string, coll_info) Hashtbl.t;
  places : place Vec.t; (* OIDs are dense from 1: OID [i] is element [i - 1] *)
}

let create ?(page_size = 4096) ?(buffer_pages = 2048) () =
  let disk = Disk.create ~page_size () in
  { disk;
    buffer = Buffer_pool.create disk ~capacity_pages:buffer_pages;
    colls = Hashtbl.create 32;
    places = Vec.create ~capacity:4096 () }

let disk t = t.disk

let buffer t = t.buffer

let declare_collection t ~name ~cls ~obj_bytes =
  if obj_bytes <= 0 then invalid_arg "Store.declare_collection: obj_bytes must be positive";
  if Hashtbl.mem t.colls name then
    invalid_arg (Printf.sprintf "Store.declare_collection: duplicate collection %s" name);
  let psize = Disk.page_size t.disk in
  let per_page = max 1 (psize / obj_bytes) in
  let pages_per_obj = if obj_bytes <= psize then 1 else (obj_bytes + psize - 1) / psize in
  Hashtbl.add t.colls name
    { c_name = name;
      c_cls = cls;
      c_obj_bytes = obj_bytes;
      c_seg = Disk.alloc_segment t.disk ~name;
      c_per_page = per_page;
      c_pages_per_obj = pages_per_obj;
      c_members = Vec.create ();
      c_layouts = [] }

let collections t = Hashtbl.fold (fun name _ acc -> name :: acc) t.colls []

let get_coll t name =
  match Hashtbl.find_opt t.colls name with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Store: unknown collection %s" name)

(* First page index of the object in slot [i]. *)
let first_page c i = if c.c_pages_per_obj > 1 then i * c.c_pages_per_obj else i / c.c_per_page

let last_page_needed c count =
  if count = 0 then 0 else first_page c (count - 1) + c.c_pages_per_obj

(* Does [fields] name exactly [layout.(i..)], in order? *)
let rec same_layout layout i = function
  | [] -> i = Array.length layout
  | (name, _) :: rest ->
    i < Array.length layout && String.equal layout.(i) name && same_layout layout (i + 1) rest

(* The collection's names array for this field list, interned on first
   sight. Walks the caller's list; builds no intermediate list. *)
let layout c n fields =
  match List.find_opt (fun l -> same_layout l 0 fields) c.c_layouts with
  | Some l -> l
  | None ->
    let l = Array.make n "" in
    List.iteri (fun i (name, _) -> l.(i) <- name) fields;
    c.c_layouts <- l :: c.c_layouts;
    l

let insert t ~coll fields =
  let c = get_coll t coll in
  let oid = Vec.length t.places + 1 in
  let n = List.length fields in
  let values = Array.make n Value.Null in
  List.iteri (fun i (_, v) -> values.(i) <- v) fields;
  let obj = { oid; cls = c.c_cls; coll; names = layout c n fields; values } in
  let slot = Vec.push c.c_members obj in
  ignore (Vec.push t.places { p_obj = obj; p_coll = c; p_slot = slot });
  let needed = last_page_needed c (slot + 1) in
  let have = Disk.segment_pages c.c_seg in
  if needed > have then Disk.extend t.disk c.c_seg (needed - have);
  oid

let place t oid =
  if oid < 1 || oid > Vec.length t.places then raise Not_found;
  Vec.get t.places (oid - 1)

let peek t oid = (place t oid).p_obj

(* First position of [name] in a layout; -1 when absent. *)
let position names name =
  let rec go i =
    if i >= Array.length names then -1 else if String.equal names.(i) name then i else go (i + 1)
  in
  go 0

let set_field t oid name v =
  let o = peek t oid in
  match position o.names name with
  | -1 -> invalid_arg (Printf.sprintf "Store.set_field: object %d has no field %s" oid name)
  | i -> o.values.(i) <- v

let fetch t oid =
  let p = place t oid in
  let c = p.p_coll in
  let page0 = first_page c p.p_slot in
  for p = page0 to page0 + c.c_pages_per_obj - 1 do
    Buffer_pool.read t.buffer c.c_seg p
  done;
  p.p_obj

let field o name =
  match position o.names name with -1 -> raise Not_found | i -> o.values.(i)

type hint = { name : string; mutable layout : string array; mutable at : int }

(* A fresh array: physically distinct from every layout. *)
let hint name = { name; layout = [| name |]; at = -1 }

let field_hinted h o =
  if o.names != h.layout then begin
    h.layout <- o.names;
    h.at <- position o.names h.name
  end;
  if h.at < 0 then raise Not_found else o.values.(h.at)

let oids t ~coll =
  let c = get_coll t coll in
  List.init (Vec.length c.c_members) (fun i -> (Vec.get c.c_members i).oid)

let scan_batch t ~coll ~pos ~n =
  if pos < 0 then invalid_arg "Store.scan_batch: negative position";
  if n < 1 then invalid_arg "Store.scan_batch: batch size must be >= 1";
  let c = get_coll t coll in
  let count = Vec.length c.c_members in
  if pos >= count then [||]
  else begin
    let stop = min count (pos + n) in
    (* One buffer-pool interaction per page the slot range spans — the
       page-granular counterpart of per-object [fetch]. With n = 1 the
       charges are exactly [fetch]'s. *)
    let last = first_page c (stop - 1) + c.c_pages_per_obj - 1 in
    for p = first_page c pos to last do
      Buffer_pool.read t.buffer c.c_seg p
    done;
    Vec.sub c.c_members pos (stop - pos)
  end

let scan t ~coll f =
  let c = get_coll t coll in
  let pages = last_page_needed c (Vec.length c.c_members) in
  (* Charge pages as we cross page boundaries, in physical order. *)
  let next_page = ref 0 in
  Vec.iteri
    (fun i o ->
      let p_end = first_page c i + c.c_pages_per_obj in
      while !next_page < p_end && !next_page < pages do
        Buffer_pool.read t.buffer c.c_seg !next_page;
        incr next_page
      done;
      f o)
    c.c_members

let cardinality t ~coll = Vec.length (get_coll t coll).c_members

let segment t ~coll = (get_coll t coll).c_seg

let obj_bytes t oid = (place t oid).p_coll.c_obj_bytes

let location t oid =
  let p = place t oid in
  Disk.abs_page t.disk p.p_coll.c_seg (first_page p.p_coll p.p_slot)

let class_of t oid = (peek t oid).cls
