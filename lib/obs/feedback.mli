(** Persistent cardinality feedback: the "closed loop" of the
    observatory.

    After a profiled execution, {!harvest} walks the profile tree and
    records per-node observed statistics — collection cardinalities,
    single-atom selectivities, unnest fanouts — keyed by the canonical
    {!Oodb_cost.Fbkey} keys the estimator looks up. {!install} loads
    those observations into an optimizer configuration
    ({!Oodb_cost.Config.feedback}), so the next optimization of any
    query touching the same atoms prices candidates with observed truth
    instead of the synthetic model, and [explain --analyze] tags such
    nodes [est_source: feedback].

    A store is scoped to one catalog state ([(epoch, digest)]): stale
    observations from before a statistics change can never leak into a
    fresh catalog. On disk the store is one JSON file per scope,
    [fb-<epoch>-<digest>.json], under a directory (typically
    [$OODB_FEEDBACK_DIR]). Repeated observations of the same key merge
    by exponential moving average (alpha 1/2), so drifting statistics
    converge on recent runs.

    Only {e single-atom} selectivities are harvested. The memo
    consistency invariant requires [sel({a1, a2}) = sel(a1) * sel(a2)];
    overriding a whole conjunction would break the select-into-join
    merge's arithmetic. *)

module Catalog = Oodb_catalog.Catalog
module Config = Oodb_cost.Config
module Json = Oodb_util.Json

type obs = { o_value : float; o_count : int; o_qerror : float }
(** One merged observation: the EMA value, how many raw observations
    went into it, and the worst q-error seen for the node that produced
    it. *)

type t

val create : ?dir:string -> Catalog.t -> t
(** A store scoped to [cat]'s current (epoch, digest). With [dir], the
    scope's file is loaded if present; without, the store is purely
    in-memory (and {!save} is a no-op). A file that does not parse
    loads nothing; loaded values go through the clamps of the
    [observe_*] functions, and non-finite ones are dropped. A file
    whose body does not name the store's own [epoch] and [digest]
    loads nothing, whatever its name. *)

val env_var : string
(** ["OODB_FEEDBACK_DIR"]. *)

val of_env : Catalog.t -> t option
(** [create ~dir] from [$OODB_FEEDBACK_DIR] when set and non-empty. *)

val file : t -> string option
(** The scope's on-disk path, when the store has a directory. *)

val save : t -> unit
(** Write atomically, through a temp file of this process's own in the
    store's directory and a rename, creating the directory if needed;
    the temp file is removed if the write fails. Of two processes
    saving one store at once, the later rename wins. No-op for
    in-memory stores. *)

val reset : t -> unit
(** Drop all in-memory observations (the file, if any, is untouched
    until the next {!save}). *)

val clear_dir : string -> int
(** Remove every [fb-*.json] under a directory; returns how many. *)

val size : t -> int
(** Distinct keys across all three tables. *)

val observe_sel : t -> string -> value:float -> qerror:float -> unit
(** Merge an observed selectivity (clamped into [[1e-6, 1]]). *)

val observe_card : t -> string -> value:float -> qerror:float -> unit
(** Merge an observed collection cardinality (clamped at 0). *)

val observe_fanout : t -> string -> value:float -> qerror:float -> unit
(** Merge an observed unnest fanout (clamped at 0). *)

val hook : t -> Config.feedback
(** Snapshot the store's current values into estimator-consultable
    tables. Later observations do {e not} flow into an already-built
    hook; build a fresh one per optimization pass. *)

val install : t -> Open_oodb.Options.t -> Open_oodb.Options.t
(** [Options.with_feedback (hook t)]. *)

val harvest :
  ?registry:Metrics.t -> t -> Config.t -> Catalog.t -> Profile.node -> int
(** Walk a profiled plan bottom-up, recording observed statistics at
    every harvestable node: [File_scan] (collection cardinality),
    single-atom [Filter]/[Hash_join]/[Pointer_join] and residual-free
    [Merge_join] (selectivity from actual in/out rows), [Alg_unnest]
    (fanout). [config] is only used to rebuild binding environments for
    key canonicalization. Returns the number of observations recorded;
    each also lands in [registry]'s ["feedback/qerror"] histogram. *)

val plan_quality : Profile.node -> float * float
(** [(max, mean)] q-error over all nodes of a profile tree. *)

val contents : t -> (string * string * obs) list
(** All observations as [(table, key, obs)] rows, [table] one of
    ["sel"], ["card"], ["fanout"]; sorted for stable display. *)

val to_json : t -> Json.t
