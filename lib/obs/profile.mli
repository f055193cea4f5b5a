(** Per-operator execution profiling: [explain --analyze] for the
    iterator tree.

    {!run} executes a physical plan with a counting iterator interposed
    at every node (via [Executor.iterator ~wrap]) and returns, besides
    the usual rows and whole-query {!Executor.io_report}, a profile tree
    mirroring the plan. The interposition is per {e batch}, matching the
    vectorized protocol, so profiling overhead amortizes exactly like
    the engine's own call overhead; rows are counted by summing batch
    lengths and the I/O deltas remain exact (they are differences of
    global counters). Each node records rows produced, [next_batch]
    calls, CPU seconds, and I/O deltas both {e inclusive} (everything that
    happened while the node's subtree was active — in a pull model all
    child work happens inside the parent's open/next/close) and
    {e exclusive} (inclusive minus the children's inclusive), so the
    exclusive columns sum exactly to the whole-query totals. Estimated
    cardinalities come from {!Cardest}, giving an estimated-vs-actual
    q-error per node. *)

module Json = Oodb_util.Json
module Engine = Open_oodb.Model.Engine
module Physical = Open_oodb.Physical

type io = {
  seq_reads : int;
  rand_reads : int;
  writes : int;
  buffer_hits : int;
  buffer_misses : int;
  buffer_evictions : int;
  seek_units : float;
  simulated_seconds : float;  (** priced like {!Executor.simulated_seconds_of} *)
}

type node = {
  op_id : int;
      (** iterator construction order; matches the ["op_id"] span
          argument, so trace spans can be attributed to plan nodes *)
  alg : Physical.t;
  est_rows : float;  (** the optimizer's estimate, re-derived by {!Cardest} *)
  actual_rows : int;
  batches : int;  (** [next_batch] calls, including the final [None] *)
  wall_seconds : float;  (** inclusive CPU seconds ([Sys.time]) *)
  exclusive_seconds : float;
      (** [wall_seconds] minus the children's — sums to the root's
          inclusive time over the tree (clamped at 0 against rounding) *)
  inclusive : io;
  exclusive : io;
  q_error : float;
      (** [max est actual 1 / max (min est actual) 1], 1.0 = perfect *)
  est_source : string;
      (** ["feedback"] when the estimate drew on observed statistics in
          [config.feedback], ["model"] otherwise *)
  children : node list;
}

val q_error : est:float -> actual:float -> float
(** [max(est, actual, 1) / max(min(est, actual), 1)]. Flooring both
    sides at one row keeps the ratio finite and symmetric around
    zero-row cases: est=5/actual=0 is q=5, est=0/actual=3 is q=3, and
    0/0 (or any pair both below a row) is a perfect 1.0. *)

val run :
  ?verify:bool ->
  ?config:Oodb_cost.Config.t ->
  ?spans:Span.t ->
  ?registry:Metrics.t ->
  Oodb_exec.Db.t ->
  Engine.plan ->
  Oodb_exec.Executor.row list * Oodb_exec.Executor.io_report * node
(** [Executor.run_measured] (statistics reset, buffer pool flushed,
    rows built per batch, the same report) with the counting iterators
    passed as its [wrap], so the rows and report are the untraced run's.
    [verify] (default off) runs the static plan linter first. [spans] records one span per interposed call
    (category ["exec"], named after the operator, with ["op_id"] and
    ["phase"] ∈ open/next_batch/close arguments) using the {e same}
    clock readings as [wall_seconds], so per-operator span durations sum
    to the profile's wall times exactly. [registry] gets every produced
    batch's row count in the ["exec/batch_rows"] histogram. *)

val pp : Format.formatter -> node -> unit
(** The annotated plan: operator tree with
    [rows=actual est=… q=… batches=… io=…] per node (exclusive I/O). *)

val to_json : node -> Json.t
