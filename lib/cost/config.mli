(** Tunable constants of the cost model and execution environment.

    The defaults are calibrated against the paper's anticipated execution
    times (its testbed was a 25 MHz DECstation 5000/125 with 32 MB of
    memory); EXPERIMENTS.md records how close each reproduced number
    lands. Everything is a plain record so experiments and property tests
    can sweep values. *)

type feedback = {
  fb_sel : (string, float) Hashtbl.t;
      (** canonical atom key ({!Fbkey.atom}) to observed selectivity *)
  fb_card : (string, float) Hashtbl.t;
      (** collection name to observed cardinality *)
  fb_fanout : (string, float) Hashtbl.t;
      (** [class.field] ({!Fbkey.fanout}) to observed set-valued fanout *)
  mutable fb_hits : int;
      (** applied overrides, cumulative; sample deltas around one
          derivation to attribute an estimate to feedback vs the model *)
}
(** Runtime cardinality feedback: observed statistics consulted by
    {!Selectivity} and {!Estimator} {e before} the synthetic model. Keys
    are canonical and class-based so overrides are independent of the
    memo form a predicate appears in (the memo consistency checker
    re-derives with the same config and must agree). Plain hashtables,
    no closures: a config carrying feedback stays marshalable. Built
    from harvested executions by [Oodb_obs.Feedback]. *)

type t = {
  page_bytes : int;  (** disk page size *)
  seq_io : float;  (** seconds per sequentially read page *)
  rand_io : float;  (** seconds per randomly read page *)
  asm_io_floor : float;
      (** seconds per assembly fetch with an unbounded window: the
          elevator pattern removes most seek time but not rotation and
          transfer *)
  assembly_window : int;  (** default window of open references *)
  cpu_tuple : float;
      (** seconds of CPU per tuple handled by an operator under the
          tuple-at-a-time protocol (work plus one boundary call) *)
  cpu_call : float;
      (** the operator-boundary (closure-call) share of [cpu_tuple],
          amortized over a batch by the vectorized engine *)
  batch_size : int;
      (** tuples per batch flowing between execution operators; 1
          degrades to the classic Volcano tuple-at-a-time protocol *)
  cpu_pred : float;  (** seconds per predicate-atom evaluation *)
  cpu_hash : float;  (** seconds per hash-table insert or probe *)
  memory_bytes : int;  (** budget for hash tables before spilling *)
  buffer_pages : int;  (** buffer-pool capacity used by the executor *)
  default_selectivity : float;  (** the paper's 10% fallback *)
  range_selectivity : float;  (** fallback for inequality predicates *)
  feedback : feedback option;
      (** observed-statistics overrides (default [None]: pure model).
          Not part of the plan-cache key: a cache entry records the
          tables it was optimized under and serves only lookups under
          the same tables, compared physically, so install a fresh
          table set rather than writing to an installed one *)
}

val default : t
(** [default.batch_size] honors the [OODB_BATCH_SIZE] environment
    variable (default 64).
    @raise Invalid_argument at module load if it is set but not a
    positive integer. *)

val default_batch_size : int
(** What [OODB_BATCH_SIZE] resolved to. *)

val per_tuple : t -> float
(** Per-tuple CPU seconds of operator overhead with the boundary-call
    share amortized over [batch_size]: exactly [cpu_tuple] at batch
    size 1, approaching [cpu_tuple - cpu_call] for large batches. *)

val assembly_io : t -> window:int -> float
(** Per-fetch I/O seconds for the assembly algorithm with the given
    window: [rand_io] when the window is 1 (one object at a time, no seek
    optimization — the degraded variant in the paper's Table 2) and
    approaching [asm_io_floor] as the window grows. *)

val pages : t -> bytes:float -> float
(** Number of pages occupied by [bytes] of densely packed data. *)

val feedback_create : unit -> feedback
(** Fresh, empty feedback tables. *)

val fb_sel_find : t -> string -> float option
(** Observed selectivity for a canonical atom key; increments [fb_hits]
    when an override is found (same for the other finders). *)

val fb_card_find : t -> string -> float option

val fb_fanout_find : t -> string -> float option

val fb_hits : t -> int
(** Current override counter ([0] without feedback). *)
