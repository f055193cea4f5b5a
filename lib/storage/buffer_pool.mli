(** LRU buffer pool in front of the simulated {!Disk}.

    All page accesses made by the execution engine go through a pool, so
    that repeated dereferences of hot objects (e.g. the 1,000 departments
    shared by 50,000 employees in the paper's Query 1) hit in memory
    instead of re-reading the disk — the effect the paper notes can only
    be studied "in the context of a real, working system".

    The pool is a fixed table of [capacity] frames with its recency list
    and its page table (page address to frame) in int arrays, so a
    {!read} allocates nothing. Hits, misses, evictions and the pages
    read from the disk are those of a textbook LRU pool. *)

type t

type stats = { hits : int; misses : int; evictions : int }

val create : Disk.t -> capacity_pages:int -> t
(** Allocates the frame table up front: about 7 words per page of
    capacity. [capacity_pages] must be positive. *)

val capacity : t -> int

val resident : t -> int
(** Number of pages currently cached. *)

val read : t -> Disk.segment -> int -> unit
(** Read a page through the pool: a hit costs nothing on the disk, a miss
    performs {!Disk.read} and may evict the least recently used page. *)

val contains : t -> Disk.segment -> int -> bool

val flush : t -> unit
(** Drop all cached pages (statistics are preserved). *)

val stats : t -> stats

val reset_stats : t -> unit

val sub : stats -> stats -> stats
(** Componentwise difference between two snapshots. *)
