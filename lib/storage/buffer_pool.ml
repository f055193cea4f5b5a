(* O(1) LRU over a fixed frame table, allocating nothing per read.

   Frames [0, count) hold resident pages; a frame's page address, its
   neighbours in the recency list (most- to least-recently used) and its
   page-table slot live in int arrays indexed by frame. Frames are handed
   out in order until the pool is full, after which a miss reuses the
   evicted frame, so the resident frames are always [0, count).

   The page table maps a page address to its frame: open addressing with
   linear probing over a power-of-two array at most half full, home slot
   by Fibonacci hashing. Removal shifts the rest of the probe run back
   (no tombstones), so lookups stop at the first free slot. *)

type stats = { hits : int; misses : int; evictions : int }

let none = -1

type t = {
  disk : Disk.t;
  cap : int;
  addr : int array;   (* frame -> absolute page address *)
  prev : int array;   (* frame -> next more recently used frame, or [none] *)
  next : int array;   (* frame -> next less recently used frame, or [none] *)
  slot : int array;   (* frame -> its page-table slot *)
  table : int array;  (* page-table slot -> frame, or [none] *)
  shift : int;        (* 63 - log2 (length table) *)
  mutable mru : int;
  mutable lru : int;
  mutable count : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create disk ~capacity_pages =
  if capacity_pages <= 0 then invalid_arg "Buffer_pool.create: capacity must be positive";
  let rec bits b = if 1 lsl b >= 2 * capacity_pages then b else bits (b + 1) in
  let b = bits 1 in
  { disk;
    cap = capacity_pages;
    addr = Array.make capacity_pages 0;
    prev = Array.make capacity_pages none;
    next = Array.make capacity_pages none;
    slot = Array.make capacity_pages 0;
    table = Array.make (1 lsl b) none;
    shift = 63 - b;
    mru = none;
    lru = none;
    count = 0;
    hits = 0;
    misses = 0;
    evictions = 0 }

let capacity t = t.cap

let resident t = t.count

let home t addr = (addr * 0x4F1BBCDCBFA53C01) lsr t.shift

let succ t i = (i + 1) land (Array.length t.table - 1)

(* Probe loops are top-level functions: a local closure would be
   allocated on every read. *)
let rec probe t addr i =
  let f = t.table.(i) in
  if f = none || t.addr.(f) = addr then f else probe t addr (succ t i)

(* The frame holding [addr], or [none]. *)
let find t addr = probe t addr (home t addr)

let rec free_slot t i = if t.table.(i) = none then i else free_slot t (succ t i)

let add t frame =
  let i = free_slot t (home t t.addr.(frame)) in
  t.table.(i) <- frame;
  t.slot.(frame) <- i

(* Slot [hole] is being emptied: move back every later entry of its probe
   run whose home is not cyclically within (hole, j], then free the last
   slot moved from. *)
let rec shift_back t hole j =
  let f = t.table.(j) in
  if f = none then t.table.(hole) <- none
  else begin
    let m = Array.length t.table - 1 in
    if (j - home t t.addr.(f)) land m >= (j - hole) land m then begin
      t.table.(hole) <- f;
      t.slot.(f) <- hole;
      shift_back t j (succ t j)
    end
    else shift_back t hole (succ t j)
  end

let remove t frame =
  let hole = t.slot.(frame) in
  shift_back t hole (succ t hole)

let unlink t f =
  let p = t.prev.(f) and n = t.next.(f) in
  if p = none then t.mru <- n else t.next.(p) <- n;
  if n = none then t.lru <- p else t.prev.(n) <- p

let push_front t f =
  t.prev.(f) <- none;
  t.next.(f) <- t.mru;
  if t.mru = none then t.lru <- f else t.prev.(t.mru) <- f;
  t.mru <- f

let read t seg page =
  let addr = Disk.abs_page t.disk seg page in
  let f = find t addr in
  if f <> none then begin
    t.hits <- t.hits + 1;
    if f <> t.mru then begin
      unlink t f;
      push_front t f
    end
  end
  else begin
    t.misses <- t.misses + 1;
    Disk.read t.disk seg page;
    let f =
      if t.count < t.cap then begin
        t.count <- t.count + 1;
        t.count - 1
      end
      else begin
        let victim = t.lru in
        unlink t victim;
        remove t victim;
        t.evictions <- t.evictions + 1;
        victim
      end
    in
    t.addr.(f) <- addr;
    add t f;
    push_front t f
  end

let contains t seg page = find t (Disk.abs_page t.disk seg page) <> none

let flush t =
  for f = 0 to t.count - 1 do
    t.table.(t.slot.(f)) <- none
  done;
  t.mru <- none;
  t.lru <- none;
  t.count <- 0

let stats t = { hits = t.hits; misses = t.misses; evictions = t.evictions }

let sub (a : stats) (b : stats) =
  { hits = a.hits - b.hits; misses = a.misses - b.misses; evictions = a.evictions - b.evictions }

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0
