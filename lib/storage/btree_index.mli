(** Simulated B+-tree index over a collection.

    The index is built from an arbitrary key extraction function, which is
    how both plain field indexes ([Tasks] on [time]) and the paper's path
    indexes ([Cities] on [mayor().name()]) are expressed: a path index's
    extractor dereferences intermediate objects at build time, so lookups
    never touch the intermediate objects — exactly the behaviour the
    collapse-to-index-scan rule exploits in Query 2.

    Entries are sorted by (key, OID) in two flat arrays, keys beside
    OIDs. Lookups charge simulated I/O for the root-to-leaf descent plus
    the leaf pages holding the matching entries. Matching OIDs are
    returned in key order; fetching the objects themselves is the
    caller's business (and its cost). *)

type t

val build :
  Store.t -> name:string -> coll:string -> key:(Value.oid -> Value.t) -> t
(** Build over the current members of [coll]. Entries with [Null] keys are
    indexed under [Null] (queries never look them up). Building charges no
    I/O. *)

val name : t -> string

val collection : t -> string

val entry_count : t -> int

val distinct_keys : t -> int

val height : t -> int
(** Levels from root to leaf, >= 1. *)

val leaf_pages : t -> int

val lookup : t -> Value.t -> Value.oid list
(** Equality probe. *)

val lookup_range : t -> lo:Value.t option -> hi:Value.t option -> Value.oid list
(** Inclusive range scan; [None] bounds are open ends. *)

(** {1 Cursors}

    The index scan's read path: an equality probe drained one batch at a
    time. *)

type cursor

val cursor : t -> Value.t -> cursor
(** A cursor over the entries of one key. Creating it charges nothing. *)

val next_batch : cursor -> n:int -> (Value.oid -> 'a) -> 'a array
(** [next_batch c ~n f] applies [f] to the next [n] (fewer at the end)
    matching OIDs in key order and returns the results; [\[||\]] once
    exhausted. The first call finds the key's entry range (one search
    for the whole drain) and charges the root-to-leaf descent; each call
    then charges the leaf pages its slice reaches that no earlier call
    charged, before it applies [f]. A full drain therefore charges
    exactly one {!lookup}, and calls after exhaustion charge nothing.
    @raise Invalid_argument on [n < 1]. *)
