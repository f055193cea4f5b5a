type 'v node = {
  nkey : string;
  mutable nval : 'v;
  mutable prev : 'v node option; (* toward MRU *)
  mutable next : 'v node option; (* toward LRU *)
}

type 'v t = {
  cap : int;
  tbl : (string, 'v node) Hashtbl.t;
  mutable head : 'v node option; (* MRU *)
  mutable tail : 'v node option; (* LRU *)
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
}

type counters = { hits : int; misses : int; insertions : int; evictions : int }

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  { cap = capacity;
    tbl = Hashtbl.create (2 * capacity);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0 }

let capacity t = t.cap

let length t = Hashtbl.length t.tbl

let counters (t : _ t) =
  { hits = t.hits; misses = t.misses; insertions = t.insertions; evictions = t.evictions }

let unlink t n =
  (match n.prev with None -> t.head <- n.next | Some p -> p.next <- n.next);
  (match n.next with None -> t.tail <- n.prev | Some s -> s.prev <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with None -> t.tail <- Some n | Some h -> h.prev <- Some n);
  t.head <- Some n

let promote t n =
  if t.head != Some n then begin
    unlink t n;
    push_front t n
  end

let remove t n =
  unlink t n;
  Hashtbl.remove t.tbl n.nkey

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | Some n ->
    t.hits <- t.hits + 1;
    promote t n;
    Some n.nval
  | None ->
    t.misses <- t.misses + 1;
    None

let evict_lru t =
  match t.tail with
  | None -> None
  | Some n ->
    remove t n;
    t.evictions <- t.evictions + 1;
    Some n.nkey

let add t key v =
  match Hashtbl.find_opt t.tbl key with
  | Some n ->
    n.nval <- v;
    promote t n;
    None
  | None ->
    let evicted = if length t >= t.cap then evict_lru t else None in
    let n = { nkey = key; nval = v; prev = None; next = None } in
    Hashtbl.add t.tbl key n;
    push_front t n;
    t.insertions <- t.insertions + 1;
    evicted

let items t =
  let rec walk acc = function
    | None -> List.rev acc
    | Some n -> walk ((n.nkey, n.nval) :: acc) n.next
  in
  walk [] t.head
