module Vec = Oodb_util.Vec

(* ------------------------------------------------------------------ *)
(* Columns *)

(* An int column codes [Null] as [null]; an [Int], [Date] or [Ref]
   equal to it sends its column to [Value.t] cells. *)
let null = min_int

type kind = Int_kind | Date_kind | Bool_kind | Ref_kind

(* Can an int column of [kind] hold [v]? *)
let codes kind v =
  match kind, v with
  | _, Value.Null -> true
  | Int_kind, Value.Int i | Date_kind, Value.Date i | Ref_kind, Value.Ref i -> i <> null
  | Bool_kind, Value.Bool _ -> true
  | _ -> false

let code = function
  | Value.Int i | Value.Date i | Value.Ref i -> i
  | Value.Bool b -> Bool.to_int b
  | Value.Null | Value.Float _ | Value.Str _ | Value.Set _ -> null

let kind_of = function
  | Value.Int _ -> Some Int_kind
  | Value.Date _ -> Some Date_kind
  | Value.Bool _ -> Some Bool_kind
  | Value.Ref _ -> Some Ref_kind
  | Value.Null | Value.Float _ | Value.Str _ | Value.Set _ -> None

let decode kind i =
  if i = null then Value.Null
  else
    match kind with
    | Int_kind -> Value.Int i
    | Date_kind -> Value.Date i
    | Bool_kind -> Value.Bool (i <> 0)
    | Ref_kind -> Value.Ref i

(* A set of references is [len] OIDs of [elems] from [first]; a [len]
   of -1 is [Null]. A set assigned again is appended, and its old
   elements stay behind unread. *)
type sets = {
  mutable first : int array;
  mutable len : int array;
  mutable elems : int array;
  mutable used : int;
}

type cells =
  | Nulls  (** every row so far is [Null] *)
  | Ints of kind * int array
  | Floats of float array
  | Sets of sets
  | Values of Value.t array  (** strings, and every column that saw two kinds *)

type column = { mutable cells : cells }

let cell cells row =
  match cells with
  | Nulls -> Value.Null
  | Ints (kind, a) -> decode kind a.(row)
  | Floats a -> Value.Float a.(row)
  | Sets s ->
    let len = s.len.(row) in
    if len < 0 then Value.Null
    else Value.Set (List.init len (fun i -> Value.Ref s.elems.(s.first.(row) + i)))
  | Values a -> a.(row)

let grown a row fill =
  if row < Array.length a then a
  else begin
    let b = Array.make (max 16 (2 * (row + 1))) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* The cells of [rows] rows with the first [rows] of [cells]' values:
   the column as it would look had it been [Value.t] cells all along. *)
let to_values cells rows =
  match cells with
  | Values a -> a
  | _ -> Array.init (max 16 rows) (fun row -> if row < rows then cell cells row else Value.Null)

let refs = function
  | Value.Set vs -> List.for_all (function Value.Ref _ -> true | _ -> false) vs
  | _ -> false

let put_set s row vs =
  let n = List.length vs in
  s.first <- grown s.first row 0;
  s.len <- grown s.len row (-1);
  s.elems <- grown s.elems (s.used + n - 1) 0;
  s.first.(row) <- s.used;
  s.len.(row) <- n;
  List.iter
    (function
      | Value.Ref o ->
        s.elems.(s.used) <- o;
        s.used <- s.used + 1
      | _ -> ())
    vs

(* The cells a column of [rows] Null rows takes for its first value. *)
let first_cells rows v =
  let n = max 16 (2 * rows) in
  match kind_of v, v with
  | Some kind, _ -> Ints (kind, Array.make n null)
  | None, Value.Float _ when rows = 0 -> Floats (Array.make 16 0.0)
  | None, Value.Set _ when refs v ->
    Sets { first = Array.make n 0; len = Array.make n (-1); elems = [||]; used = 0 }
  | None, _ -> Values (Array.make n Value.Null)

(* Write [v] in [row] of a column of [rows] rows ([row <= rows]); a
   value the cells cannot code turns them into [Value.t] cells first. *)
let rec put col ~rows row v =
  match col.cells, v with
  | Ints (kind, a), _ when codes kind v ->
    let b = grown a row null in
    b.(row) <- code v;
    if b != a then col.cells <- Ints (kind, b)
  | Floats a, Value.Float f ->
    let b = grown a row 0.0 in
    b.(row) <- f;
    if b != a then col.cells <- Floats b
  | Sets s, Value.Null ->
    s.first <- grown s.first row 0;
    s.len <- grown s.len row (-1);
    s.len.(row) <- -1
  | Sets s, Value.Set vs when refs v -> put_set s row vs
  | Values a, _ ->
    let b = grown a row Value.Null in
    b.(row) <- v;
    if b != a then col.cells <- Values b
  | Nulls, Value.Null -> ()
  | Nulls, _ ->
    col.cells <- first_cells rows v;
    put col ~rows row v
  | (Ints _ | Floats _ | Sets _), _ ->
    col.cells <- Values (to_values col.cells rows);
    put col ~rows row v

(* ------------------------------------------------------------------ *)
(* Collections and the OID table *)

type coll = {
  c_cls : string;
  c_obj_bytes : int;
  c_seg : Disk.segment;
  c_per_page : int;       (* objects per page; 1 when objects span pages *)
  c_pages_per_obj : int;  (* pages per object; 1 when objects share pages *)
  c_slots : Value.oid Vec.t;  (* the OID in each slot, in slot order *)
  mutable c_groups : group list; (* one per layout, newest first *)
}

(* The objects of one collection inserted with one list of field names
   (a layout): one column per field, one row per object. *)
and group = {
  g_id : int;
  g_coll : coll;
  g_names : string array;
  g_cols : column array;
  mutable g_rows : int;
}

type t = {
  disk : Disk.t;
  buffer : Buffer_pool.t;
  colls : (string, coll) Hashtbl.t;
  groups : group Vec.t;
  mutable count : int; (* OIDs are dense from 1: OID [i] is entry [i - 1] below *)
  mutable oid_group : int array;
  mutable oid_row : int array;
  mutable oid_page : int array; (* first page in the collection's segment *)
}

let create ?(page_size = 4096) ?(buffer_pages = 2048) () =
  let disk = Disk.create ~page_size () in
  { disk;
    buffer = Buffer_pool.create disk ~capacity_pages:buffer_pages;
    colls = Hashtbl.create 32;
    groups = Vec.create ();
    count = 0;
    oid_group = [||];
    oid_row = [||];
    oid_page = [||] }

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
    { c_cls = cls;
      c_obj_bytes = obj_bytes;
      c_seg = Disk.alloc_segment t.disk ~name;
      c_per_page = per_page;
      c_pages_per_obj = pages_per_obj;
      c_slots = Vec.create ();
      c_groups = [] }

let collections t = Hashtbl.fold (fun name _ acc -> name :: acc) t.colls []

let get_coll t name =
  match Hashtbl.find_opt t.colls name with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Store: unknown collection %s" name)

(* First page index of the object in slot [i]. *)
let first_page c i = if c.c_pages_per_obj > 1 then i * c.c_pages_per_obj else i / c.c_per_page

let last_page_needed c count =
  if count = 0 then 0 else first_page c (count - 1) + c.c_pages_per_obj

(* Does [fields] name exactly [names.(i..)], in order? *)
let rec same_layout names i = function
  | [] -> i = Array.length names
  | (name, _) :: rest ->
    i < Array.length names && String.equal names.(i) name && same_layout names (i + 1) rest

(* The collection's group for this field list, made on first sight.
   Finding it walks the caller's list and builds no other. *)
let group t c fields =
  match List.find_opt (fun g -> same_layout g.g_names 0 fields) c.c_groups with
  | Some g -> g
  | None ->
    let names = Array.of_list (List.map fst fields) in
    let g =
      { g_id = Vec.length t.groups;
        g_coll = c;
        g_names = names;
        g_cols = Array.map (fun _ -> { cells = Nulls }) names;
        g_rows = 0 }
    in
    ignore (Vec.push t.groups g);
    c.c_groups <- g :: c.c_groups;
    g

let insert t ~coll fields =
  let c = get_coll t coll in
  let g = group t c fields in
  let row = g.g_rows in
  List.iteri (fun i (_, v) -> put g.g_cols.(i) ~rows:row row v) fields;
  g.g_rows <- row + 1;
  let oid = t.count + 1 in
  let slot = Vec.push c.c_slots oid in
  t.oid_group <- grown t.oid_group (oid - 1) 0;
  t.oid_row <- grown t.oid_row (oid - 1) 0;
  t.oid_page <- grown t.oid_page (oid - 1) 0;
  t.oid_group.(oid - 1) <- g.g_id;
  t.oid_row.(oid - 1) <- row;
  t.oid_page.(oid - 1) <- first_page c slot;
  t.count <- oid;
  let needed = last_page_needed c (slot + 1) in
  let have = Disk.segment_pages c.c_seg in
  if needed > have then Disk.extend t.disk c.c_seg (needed - have);
  oid

let group_of t oid =
  if oid < 1 || oid > t.count then raise Not_found;
  Vec.get t.groups t.oid_group.(oid - 1)

(* First position of [name] in a layout; -1 when absent. *)
let position names name =
  let rec go i =
    if i >= Array.length names then -1 else if String.equal names.(i) name then i else go (i + 1)
  in
  go 0

let set_field t oid name v =
  let g = group_of t oid in
  match position g.g_names name with
  | -1 -> invalid_arg (Printf.sprintf "Store.set_field: object %d has no field %s" oid name)
  | i -> put g.g_cols.(i) ~rows:g.g_rows t.oid_row.(oid - 1) v

let field t oid name =
  let g = group_of t oid in
  match position g.g_names name with
  | -1 -> raise Not_found
  | i -> cell g.g_cols.(i).cells t.oid_row.(oid - 1)

let field_names t oid = Array.to_list (group_of t oid).g_names

let fetch t oid =
  let c = (group_of t oid).g_coll in
  let page0 = t.oid_page.(oid - 1) in
  for p = page0 to page0 + c.c_pages_per_obj - 1 do
    Buffer_pool.read t.buffer c.c_seg p
  done

(* ------------------------------------------------------------------ *)
(* Column reads by OID *)

type reader = {
  store : t;
  name : string;
  mutable for_group : int; (* the group [col] was resolved for; -1 before the first read *)
  mutable col : column;
}

(* What a field missing from a layout reads as. Never written. *)
let absent = { cells = Nulls }

let reader store name = { store; name; for_group = -1; col = absent }

let cells_at r oid =
  let t = r.store in
  if oid < 1 || oid > t.count then raise Not_found;
  let g = t.oid_group.(oid - 1) in
  if g <> r.for_group then begin
    let g' = Vec.get t.groups g in
    r.for_group <- g;
    r.col <- (match position g'.g_names r.name with -1 -> absent | i -> g'.g_cols.(i))
  end;
  r.col.cells

let get r oid =
  let cells = cells_at r oid in
  cell cells r.store.oid_row.(oid - 1)

let compare_cell r oid v =
  let cells = cells_at r oid in
  let row = r.store.oid_row.(oid - 1) in
  match cells, v with
  | Nulls, _ -> null
  | Ints (kind, a), _ -> (
    let x = a.(row) in
    if x = null then null
    else
      match kind, v with
      | Int_kind, Value.Int k | Date_kind, Value.Date k | Ref_kind, Value.Ref k -> Int.compare x k
      | Bool_kind, Value.Bool b -> Int.compare x (Bool.to_int b)
      | Int_kind, Value.Float f -> Float.compare (float_of_int x) f
      | _ -> Value.compare (decode kind x) v)
  | Floats a, Value.Float f -> Float.compare a.(row) f
  | Floats a, Value.Int k -> Float.compare a.(row) (float_of_int k)
  | Values a, _ -> ( match a.(row) with Value.Null -> null | x -> Value.compare x v)
  | (Floats _ | Sets _), _ -> ( match cell cells row with Value.Null -> null | x -> Value.compare x v)

let ref_cell r oid =
  match cells_at r oid with
  | Ints (Ref_kind, a) -> a.(r.store.oid_row.(oid - 1))
  | Values a -> (
    match a.(r.store.oid_row.(oid - 1)) with Value.Ref o -> o | _ -> null)
  | Nulls | Ints _ | Floats _ | Sets _ -> null

let iter_set r oid f =
  match cells_at r oid with
  | Sets s ->
    let row = r.store.oid_row.(oid - 1) in
    let first = s.first.(row) in
    for i = first to first + s.len.(row) - 1 do
      f s.elems.(i)
    done
  | Nulls -> ()
  | cells ->
    List.iter
      (function Value.Ref o -> f o | _ -> ())
      (Value.set_elements (cell cells r.store.oid_row.(oid - 1)))

(* ------------------------------------------------------------------ *)
(* Scans and the simulated layout *)

let oids t ~coll = Vec.to_list (get_coll t coll).c_slots

let scan_batch t ~coll ~pos ~n =
  if pos < 0 then invalid_arg "Store.scan_batch: negative position";
  if n < 1 then invalid_arg "Store.scan_batch: batch size must be >= 1";
  let c = get_coll t coll in
  let count = Vec.length c.c_slots in
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
    Vec.sub c.c_slots pos (stop - pos)
  end

let scan t ~coll f =
  let c = get_coll t coll in
  let pages = last_page_needed c (Vec.length c.c_slots) in
  (* Charge pages as we cross page boundaries, in physical order. *)
  let next_page = ref 0 in
  Vec.iteri
    (fun i oid ->
      let p_end = first_page c i + c.c_pages_per_obj in
      while !next_page < p_end && !next_page < pages do
        Buffer_pool.read t.buffer c.c_seg !next_page;
        incr next_page
      done;
      f oid)
    c.c_slots

let cardinality t ~coll = Vec.length (get_coll t coll).c_slots

let segment t ~coll = (get_coll t coll).c_seg

let obj_bytes t oid = (group_of t oid).g_coll.c_obj_bytes

let location t oid =
  let c = (group_of t oid).g_coll in
  Disk.abs_page t.disk c.c_seg t.oid_page.(oid - 1)

let class_of t oid = (group_of t oid).g_coll.c_cls
