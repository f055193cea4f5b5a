(* Entries are kept sorted by (key, OID) in two flat arrays; the page
   layout (leaf fanout, internal fanout, height) is simulated from entry
   counts so that lookups can charge a realistic number of page reads
   without materializing the tree. 16 bytes per leaf entry (key digest +
   OID) and 16 per separator give fanouts of page_size / 16. *)

type t = {
  name : string;
  coll : string;
  store : Store.t;
  seg : Disk.segment;
  keys : Value.t array; (* sorted; [keys.(i)] is the key of [oids.(i)] *)
  oids : Value.oid array; (* ascending within a key *)
  leaf_fanout : int;
  distinct : int;
  height : int;
  leaf_pages : int;
}

let build store ~name ~coll ~key =
  let entries = Array.of_list (List.map (fun oid -> (key oid, oid)) (Store.oids store ~coll)) in
  Array.sort
    (fun (ka, a) (kb, b) ->
      let c = Value.compare ka kb in
      if c <> 0 then c else Int.compare a b)
    entries;
  let keys = Array.map fst entries and oids = Array.map snd entries in
  let n = Array.length keys in
  let psize = Disk.page_size (Store.disk store) in
  let fanout = max 2 (psize / 16) in
  let leaf_pages = max 1 ((n + fanout - 1) / fanout) in
  let rec levels pages acc = if pages <= 1 then acc else levels ((pages + fanout - 1) / fanout) (acc + 1) in
  let height = 1 + levels leaf_pages 0 in
  let internal_pages =
    let rec go pages acc =
      if pages <= 1 then acc + (if acc = 0 then 0 else 1)
      else
        let parents = (pages + fanout - 1) / fanout in
        go parents (acc + parents)
    in
    if leaf_pages <= 1 then 0 else go leaf_pages 0
  in
  let distinct =
    let d = ref 0 in
    Array.iteri (fun i k -> if i = 0 || Value.compare keys.(i - 1) k <> 0 then incr d) keys;
    !d
  in
  let seg = Disk.alloc_segment (Store.disk store) ~name:("idx:" ^ name) in
  Disk.extend (Store.disk store) seg (leaf_pages + max 0 internal_pages);
  { name; coll; store; seg; keys; oids; leaf_fanout = fanout; distinct; height; leaf_pages }

let name t = t.name

let collection t = t.coll

let entry_count t = Array.length t.keys

let distinct_keys t = t.distinct

let height t = t.height

let leaf_pages t = t.leaf_pages

(* First index in [\[lo, hi)] whose key is >= [key] ([~strict:false]) or
   > [key] ([~strict:true]); [hi] when there is none. *)
let rec search keys key ~strict lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    let c = Value.compare keys.(mid) key in
    if c < 0 || (strict && c = 0) then search keys key ~strict (mid + 1) hi
    else search keys key ~strict lo mid

let lower_bound t key = search t.keys key ~strict:false 0 (Array.length t.keys)

let upper_bound t key ~from = search t.keys key ~strict:true from (Array.length t.keys)

(* Charge the root-to-leaf descent towards entry [first]: one page per
   internal level (internal pages are laid out after the leaves), then
   the leaf holding [first], or the last leaf when [first] is past the
   end. Returns that leaf. *)
let charge_descent t first =
  let buffer = Store.buffer t.store in
  let pages = Disk.segment_pages t.seg in
  let n = Array.length t.keys in
  let leaf = if n = 0 then 0 else min first (n - 1) / t.leaf_fanout in
  for level = 1 to t.height - 1 do
    let page = min (pages - 1) (t.leaf_pages + level - 1) in
    if page >= 0 && pages > 0 then Buffer_pool.read buffer t.seg page
  done;
  if pages > 0 then Buffer_pool.read buffer t.seg (min leaf (pages - 1));
  leaf

(* Charge every leaf after [charged] through the one holding entry
   [last - 1]; returns the last leaf charged. *)
let charge_leaves t ~charged last =
  let upto = (last - 1) / t.leaf_fanout in
  for leaf = charged + 1 to upto do
    Buffer_pool.read (Store.buffer t.store) t.seg leaf
  done;
  upto

let lookup_range t ~lo ~hi =
  let first = match lo with Some v -> lower_bound t v | None -> 0 in
  let last = match hi with Some v -> upper_bound t v ~from:first | None -> Array.length t.keys in
  let charged = charge_descent t first in
  if last > first then ignore (charge_leaves t ~charged last);
  List.init (max 0 (last - first)) (fun i -> t.oids.(first + i))

let lookup t key = lookup_range t ~lo:(Some key) ~hi:(Some key)

type cursor = {
  ix : t;
  key : Value.t;
  mutable next : int; (* next entry to return; -1 before the first batch *)
  mutable stop : int; (* one past the key's last entry *)
  mutable charged : int; (* last leaf page charged *)
}

let cursor ix key = { ix; key; next = -1; stop = 0; charged = 0 }

let next_batch c ~n f =
  if n < 1 then invalid_arg "Btree_index.next_batch: batch size must be >= 1";
  let t = c.ix in
  if c.next < 0 then begin
    let first = lower_bound t c.key in
    c.next <- first;
    c.stop <- upper_bound t c.key ~from:first;
    c.charged <- charge_descent t first
  end;
  let a = c.next in
  let b = min c.stop (a + n) in
  if a >= b then [||]
  else begin
    c.charged <- charge_leaves t ~charged:c.charged b;
    c.next <- b;
    Array.init (b - a) (fun i -> f t.oids.(a + i))
  end
