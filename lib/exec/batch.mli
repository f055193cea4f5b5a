(** Bounded batches of tuples — the unit flowing between execution
    operators in the vectorized engine.

    A batch is an array of {!Env.t} plus an optional {e selection
    vector}: filters narrow a batch by listing the surviving indexes
    instead of copying tuples, so predicate chains touch each tuple once
    and allocate no intermediate arrays of environments. [map] produces
    a dense batch unless it leaves every tuple unchanged. *)

type t

val empty : t

val of_array : Env.t array -> t
(** The array is owned by the batch; do not mutate it afterwards. *)

val of_list : Env.t list -> t

val length : t -> int
(** Live (selected) tuples. *)

val is_empty : t -> bool

val get : t -> int -> Env.t
(** [get t i] is the [i]-th live tuple (selection applied). *)

val iter : (Env.t -> unit) -> t -> unit

val fold_right : (Env.t -> 'a -> 'a) -> t -> 'a -> 'a

val to_list : t -> Env.t list

val map : (Env.t -> Env.t) -> t -> t
(** Returns the batch itself when [f] returns every tuple physically
    unchanged; a dense batch otherwise. *)

val filter : (Env.t -> bool) -> t -> t
(** Refines the selection vector; the backing array is shared, no tuple
    is copied. Returns the batch unchanged when nothing is dropped. *)

val drop : t -> int -> t
(** [drop t pos] is the batch of live tuples from position [pos] on —
    the remainder a partially consumed tuple cursor hands back to batch
    consumers. *)

(** A FIFO of tuples, cut into batches as they are pushed: where
    operators whose output outgrows their input (joins, unnest) park
    tuples until a full batch is ready. *)
module Fifo : sig
  type batch := t

  type t

  val create : int -> t
  (** Batches of this many tuples (at least one). *)

  val clear : t -> unit

  val push : t -> Env.t -> unit

  val pop_full : t -> batch option
  (** The oldest full batch, if one is ready. *)

  val pop : t -> batch option
  (** The oldest full batch, else the tuples of the batch being filled,
      else [None]: what the producer hands out once its input is done. *)
end
