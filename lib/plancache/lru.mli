(** Bounded LRU map with string keys.

    A plain doubly-linked recency list over a hash table: [find]
    promotes to most-recently-used, [add] evicts the least-recently-used
    entry once the capacity is reached. Instrumented with monotone
    hit/miss/insertion/eviction counters so callers can report cache
    effectiveness without wrapping every operation. *)

type 'v t

val create : capacity:int -> 'v t
(** @raise Invalid_argument when [capacity < 1]. *)

val capacity : 'v t -> int

val length : 'v t -> int

val find : ?keep:('v -> bool) -> 'v t -> string -> 'v option
(** Promotes the entry to most-recently-used; counts a hit or a miss.
    An entry whose value fails [keep] (default: every value passes) is
    removed instead and counted as a miss. One table lookup either way. *)

val update : 'v t -> string -> ('v -> 'v) -> unit
(** Replace the value in place (no promotion, no counters); no-op when
    the key is absent. *)

val add : 'v t -> string -> 'v -> string option
(** Insert or replace (either way the entry becomes most-recently-used);
    returns the key evicted to make room, if any. Replacement never
    evicts. *)

type counters = { hits : int; misses : int; insertions : int; evictions : int }

val counters : 'v t -> counters

val items : 'v t -> (string * 'v) list
(** Most-recently-used first; for tests and diagnostics. *)
