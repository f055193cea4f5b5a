(** A growable flat array (amortized O(1) [push], O(1) [get]/[set]) — the
    backing store for the optimizer memo's id-indexed tables. OCaml 5.1
    predates [Stdlib.Dynarray]; this is the small subset the memo needs.

    No dummy element is required: capacity is allocated lazily at the
    first [push], using the pushed value as the fill for unused slots
    (which may therefore retain it until overwritten — fine for the
    memo's append-only tables). *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** An empty vector. [capacity] is a hint for the first allocation. *)

val length : 'a t -> int

val get : 'a t -> int -> 'a
(** @raise Invalid_argument outside [0 .. length-1]. *)

val set : 'a t -> int -> 'a -> unit
(** @raise Invalid_argument outside [0 .. length-1]. *)

val push : 'a t -> 'a -> int
(** Append and return the new element's index. *)

val sub : 'a t -> int -> int -> 'a array
(** [sub t pos n] copies elements [pos .. pos+n-1] into a fresh array.
    @raise Invalid_argument outside [0 .. length-1]. *)

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val to_list : 'a t -> 'a list
