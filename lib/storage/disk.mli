(** Simulated disk.

    Pages live in contiguously allocated segments on a single platter
    addressed by absolute page number. The model distinguishes sequential
    reads (next page after the head) from random reads, and accounts seek
    distance so that an elevator access pattern (sorted by address, as the
    assembly operator issues) is measurably cheaper than the same reads in
    arbitrary order. This is the behaviour the paper's cost model charges
    for: "charge less for sequential than for random I/O" and assembly's
    reduced seek distances. *)

type t

type segment

type stats = {
  seq_reads : int;       (** reads of the page immediately after the head *)
  rand_reads : int;      (** all other reads *)
  seek_pages : int;      (** total seek distance of random reads, in pages *)
  seek_units : float;
      (** seek time in full-stroke equivalents: each random read adds
          [sqrt (min (distance, cap) / cap)] (arm acceleration makes seek
          time grow with the square root of the distance) — elevator hops
          are much cheaper than cross-segment jumps, which is what rewards
          the assembly operator's sorted fetch order. *)
  writes : int;
}

val create : ?page_size:int -> unit -> t
(** Fresh disk. [page_size] defaults to 4096 bytes. *)

val page_size : t -> int

val alloc_segment : t -> name:string -> segment
(** Allocate a new (initially empty) segment. *)

val segment_pages : segment -> int

val extend : t -> segment -> int -> unit
(** [extend t seg n] appends [n] fresh pages to [seg]. Segments are
    contiguous: extending a segment after another segment has been
    allocated relocates nothing (pages are assigned from a per-segment
    reserved region grown on demand). *)

val read : t -> segment -> int -> unit
(** [read t seg page] simulates reading page index [page] (0-based) of
    [seg], updating head position and statistics.
    @raise Invalid_argument if the page does not exist. *)

val write : t -> segment -> int -> unit
(** Simulated write (counted, head moves). *)

val abs_page : t -> segment -> int -> int
(** Absolute platter address of a segment page; callers sorting fetches
    by this address obtain the elevator pattern. *)

val stats : t -> stats

val reset_stats : t -> unit

val sub : stats -> stats -> stats
(** Componentwise difference: the traffic between two snapshots — what
    the per-operator execution profiler attributes to a plan node. *)
