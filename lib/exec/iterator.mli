(** Volcano-style demand-driven iterators, batch-at-a-time.

    The execution model is the Volcano pull protocol the paper plans to
    transfer to the Open OODB system, vectorized: every algorithm is an
    iterator over bounded {!Batch.t}s of {!Env.t} tuples, composed into
    a tree mirroring the physical plan. One [next_batch] call per batch
    replaces one closure call per tuple at every operator boundary.

    A tuple-at-a-time shim ({!next}) cursors over the current batch, so
    drivers written against the classic open/next/close protocol keep
    working unchanged; with batch size 1 the engine degrades to exactly
    the paper's tuple-at-a-time behavior. *)

type t

val make_batched :
  open_:(unit -> unit) ->
  next_batch:(unit -> Batch.t option) ->
  close:(unit -> unit) ->
  t
(** The primary constructor. [next_batch] returns [None] when
    exhausted; empty batches are legal but consumers skip them. *)

val open_ : t -> unit

val next_batch : t -> Batch.t option
(** Never returns an empty batch. A batch partially consumed through
    {!next} is handed back (its remainder) before the underlying
    producer is pulled again, so mixed tuple/batch consumption is
    coherent. *)

val next : t -> Env.t option
(** Tuple-at-a-time shim: cursors over the current batch and pulls the
    next one when it runs out. *)

val close : t -> unit

val iter_batches : t -> (Batch.t -> unit) -> unit
(** Open, pass every batch to the function in order, close. If the
    iterator tree or the function raises mid-drain, the tree is closed
    before the exception is re-raised, so no operator leaks open
    children; the original exception wins over a failing [close]. *)

val to_list : t -> Env.t list
(** {!iter_batches} collecting the tuples in order. *)

val of_list_thunk : ?batch_size:int -> (unit -> Env.t list) -> t
(** Materializing source: the thunk runs at open time; output is served
    in batches of [batch_size] (default {!Oodb_cost.Config.default_batch_size}). *)
