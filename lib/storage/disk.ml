type segment = {
  id : int;
  name : string;
  mutable n_pages : int;
}

type stats = {
  seq_reads : int;
  rand_reads : int;
  seek_pages : int;
  seek_units : float;
  writes : int;
}

(* A record of floats only is stored flat, so updating it allocates
   nothing; a float field of [t] would be boxed on every random read. *)
type units = { mutable units : float }

type t = {
  psize : int;
  mutable next_segment : int;
  mutable head : int; (* absolute page address under the head *)
  mutable seq_reads : int;
  mutable rand_reads : int;
  mutable seek_pages : int;
  seek_units : units;
  mutable writes : int;
}

(* Each segment owns a large contiguous region of the platter; regions are
   spaced far apart so that cross-segment seeks dominate within-segment
   seeks, as on a real extent-allocated disk. *)
let region = 1_000_000

(* Full-stroke seek distance: anything beyond this costs one unit. Seek
   time grows with the square root of the distance (arm acceleration), so
   short elevator hops are cheap but not free. *)
let seek_cap = 16_384

let create ?(page_size = 4096) () =
  { psize = page_size;
    next_segment = 0;
    head = -1;
    seq_reads = 0;
    rand_reads = 0;
    seek_pages = 0;
    seek_units = { units = 0.0 };
    writes = 0 }

let page_size t = t.psize

let alloc_segment t ~name =
  let id = t.next_segment in
  t.next_segment <- id + 1;
  { id; name; n_pages = 0 }

let segment_pages seg = seg.n_pages

let extend _t seg n =
  assert (n >= 0);
  seg.n_pages <- seg.n_pages + n

let abs_page _t seg page = (seg.id * region) + page

let check seg page =
  if page < 0 || page >= seg.n_pages then
    invalid_arg
      (Printf.sprintf "Disk: page %d out of range in segment %s (%d pages)" page seg.name
         seg.n_pages)

let read t seg page =
  check seg page;
  let addr = abs_page t seg page in
  if addr = t.head + 1 then t.seq_reads <- t.seq_reads + 1
  else begin
    t.rand_reads <- t.rand_reads + 1;
    let d = abs (addr - t.head) in
    t.seek_pages <- t.seek_pages + d;
    t.seek_units.units <-
      t.seek_units.units +. sqrt (float_of_int (min d seek_cap) /. float_of_int seek_cap)
  end;
  t.head <- addr

let write t seg page =
  check seg page;
  t.writes <- t.writes + 1;
  t.head <- abs_page t seg page

let stats t =
  { seq_reads = t.seq_reads;
    rand_reads = t.rand_reads;
    seek_pages = t.seek_pages;
    seek_units = t.seek_units.units;
    writes = t.writes }

let reset_stats t =
  t.seq_reads <- 0;
  t.rand_reads <- 0;
  t.seek_pages <- 0;
  t.seek_units.units <- 0.0;
  t.writes <- 0

let sub (a : stats) (b : stats) =
  { seq_reads = a.seq_reads - b.seq_reads;
    rand_reads = a.rand_reads - b.rand_reads;
    seek_pages = a.seek_pages - b.seek_pages;
    seek_units = a.seek_units -. b.seek_units;
    writes = a.writes - b.writes }
