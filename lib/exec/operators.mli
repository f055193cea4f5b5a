(** Execution operators: one constructor per physical algorithm.

    All operators are {!Iterator.t} factories producing and consuming
    {!Batch.t}s (the vectorized protocol; see {!Iterator}). Operators
    that control their own output granularity take a [batch_size];
    setting it to 1 degrades the engine to tuple-at-a-time behavior
    with identical row streams and I/O charges. Disk and buffer traffic
    is charged through the {!Db.t}'s store, so runs can be compared
    with the optimizer's anticipated costs. *)

module Value = Oodb_storage.Value
module Pred = Oodb_algebra.Pred
module Logical = Oodb_algebra.Logical
module Physical = Open_oodb.Physical
module Config = Oodb_cost.Config

val trim : string list -> Iterator.t -> Iterator.t
(** Clear the presence bits of bindings outside the list — the runtime
    counterpart of a plan node's delivered in-memory properties. *)

val file_scan : Db.t -> coll:string -> binding:string -> batch_size:int -> Iterator.t
(** Reads [batch_size] objects per storage call ({!Store.scan_batch}),
    paying buffer-pool traffic per page range instead of per object. *)

val index_scan :
  Db.t -> coll:string -> binding:string -> index:string -> key:Value.t ->
  residual:Pred.t -> derefs:(string * string option * string) list ->
  batch_size:int -> Iterator.t
(** Tests [residual] on each object's columns right after fetching it,
    and builds tuples only for the objects that pass. [derefs] are the
    collapsed Mat links whose output references the scan re-emits.
    @raise Invalid_argument when the physical index is missing. *)

val filter : Db.t -> Pred.t -> Iterator.t -> Iterator.t

val hash_join : Db.t -> Config.t -> Pred.t -> build:Iterator.t -> probe:Iterator.t -> Iterator.t
(** Equality conjuncts spanning both sides become the hash key; the rest
    are evaluated as residual predicates. A single key conjunct that
    compares an object identity ([Self]) with an identity or a
    reference is hashed by OID, with each OID's build tuples grouped;
    any other key by [Value.t]. A build side exceeding the
    memory budget triggers a simulated partitioning pass (temp-segment
    writes and re-reads) so the spill shows up in the I/O statistics. *)

val merge_join :
  Db.t -> key_l:Pred.operand -> key_r:Pred.operand -> residual:Pred.t ->
  batch_size:int -> left:Iterator.t -> right:Iterator.t -> Iterator.t
(** Both inputs must arrive ordered on their key (ensured by the
    optimizer's order property). Handles duplicate key blocks on both
    sides. *)

val pointer_join :
  Db.t -> src:string -> field:string option -> out:string -> residual:Pred.t ->
  Iterator.t -> Iterator.t

val assembly :
  Db.t -> paths:Physical.assembly_path list -> window:int ->
  ?warm:string option -> Iterator.t -> Iterator.t
(** Maintains a window of open references per path and fetches each
    window in physical disk order (elevator). Tuples whose reference is
    [Null] are dropped. [warm] pre-scans a collection into the buffer
    pool (the paper's Lesson 7 warm-start variant). *)

val alg_project : Logical.proj list -> Iterator.t -> Iterator.t
(** Narrows tuples to the bindings the projections mention; row
    construction happens in {!Executor.run}. *)

val alg_unnest :
  Db.t -> src:string -> field:string -> out:string -> batch_size:int ->
  Iterator.t -> Iterator.t

val hash_union : batch_size:int -> Iterator.t -> Iterator.t -> Iterator.t

val hash_intersect : batch_size:int -> Iterator.t -> Iterator.t -> Iterator.t

val hash_difference : batch_size:int -> Iterator.t -> Iterator.t -> Iterator.t

val sort : Db.t -> Open_oodb.Physprop.order -> batch_size:int -> Iterator.t -> Iterator.t
