(** Translation of optimizer plans into iterator trees and plan
    execution. *)

module Value = Oodb_storage.Value
module Engine = Open_oodb.Model.Engine
module Config = Oodb_cost.Config

type row = (string * Value.t) list
(** One result tuple: projected name/value pairs, or binding/[Ref] pairs
    for plans without a root projection. *)

val iterator :
  ?config:Config.t ->
  ?wrap:(Engine.plan -> Iterator.t -> Iterator.t) ->
  Db.t ->
  Engine.plan ->
  Iterator.t
(** Build the iterator tree for a physical plan. [wrap] is applied to
    every node's iterator as it is built (children before parents, and
    {e inside} the in-memory trim the parent applies), receiving the plan
    node it implements — the hook the per-operator profiler
    ({!Oodb_obs.Profile}) uses to interpose counting iterators. The
    default is the identity: no per-tuple indirection is added when no
    wrapper is requested. *)

val rows_of : Db.t -> Engine.plan -> Env.t list -> row list
(** Extract result rows from drained environments: a root Alg-Project
    evaluates its expressions; any other root yields binding/OID pairs.
    {!run} builds its rows with the same function, compiled once per
    plan. *)

val run :
  ?verify:bool ->
  ?config:Config.t ->
  ?wrap:(Engine.plan -> Iterator.t -> Iterator.t) ->
  Db.t ->
  Engine.plan ->
  row list
(** Execute to completion and extract result rows. The plan is drained a
    batch at a time ({!Iterator.iter_batches}) and each batch becomes
    rows as it arrives, so no tuple is held past its batch. [wrap] is
    passed to {!iterator}. [verify] runs the static plan linter
    ({!Open_oodb.Planlint.plan}) first and refuses the plan on any
    violation; it defaults to on when the [OODB_DEBUG] environment
    variable is set (non-empty, not ["0"]).
    @raise Invalid_argument when [verify] is on and the plan is invalid. *)

type io_report = {
  seq_reads : int;
  rand_reads : int;
  writes : int;
      (** spill traffic (hash-join partitioning); priced into
          [simulated_seconds] as sequential transfers *)
  buffer_hits : int;
  buffer_misses : int;
  buffer_evictions : int;
  rows : int;
  simulated_seconds : float;
      (** disk time under the cost model's per-page constants — the
          executed counterpart of the optimizer's anticipated I/O cost *)
}

val simulated_seconds_of : Config.t -> Oodb_storage.Disk.stats -> float
(** Disk time of a traffic (delta) under the cost model's constants —
    the pricing {!run_measured} applies to the whole query and the
    profiler applies to per-operator deltas. *)

val run_measured :
  ?verify:bool ->
  ?config:Config.t ->
  ?wrap:(Engine.plan -> Iterator.t -> Iterator.t) ->
  Db.t ->
  Engine.plan ->
  row list * io_report
(** Like {!run}, but resets the disk/buffer statistics and flushes the
    buffer pool first, and reports the traffic the plan caused. The
    per-operator profiler ({!Oodb_obs.Profile.run}) is this run with a
    counting [wrap]. *)

val pp_report : Format.formatter -> io_report -> unit
