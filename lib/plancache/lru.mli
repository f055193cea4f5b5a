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

val find : 'v t -> string -> ('a -> 'b -> 'v -> bool) -> 'a -> 'b -> 'v option
(** [find t key valid a b] is the entry under [key] if [valid a b]
    holds of it: a hit, promoted to most-recently-used. An absent entry
    and an invalid one are misses; an invalid entry stays where it is
    until {!add} replaces it. [valid] takes its two arguments apart so
    that a call with a toplevel [valid] allocates no closure. *)

val add : 'v t -> string -> 'v -> string option
(** Insert or replace (either way the entry becomes most-recently-used);
    returns the key evicted to make room, if any. Replacement never
    evicts. *)

type counters = { hits : int; misses : int; insertions : int; evictions : int }

val counters : 'v t -> counters

val items : 'v t -> (string * 'v) list
(** Most-recently-used first; for tests and diagnostics. *)
