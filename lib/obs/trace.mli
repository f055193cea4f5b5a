(** Optimizer search-trace recorder.

    A recorder is an {!Engine.event} sink (pass {!sink} as the [?trace]
    argument of [Optimizer.optimize] or [Engine.run]). Aggregate tables
    — per-group activity and search totals — are updated on every event
    before the event enters the bounded {!Ring}, so they stay exact even
    when the timeline window has wrapped. Per-rule tried/fired counts
    are not re-derived here: the renderers take the engine's own
    [Engine.rule_counters] from the caller. *)

module Json = Oodb_util.Json
module Engine = Open_oodb.Model.Engine

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the retained timeline (default 4096 events). *)

val sink : t -> Engine.event -> unit
(** The event callback. Must not be shared across concurrent searches. *)

(** {1 Aggregates} *)

type totals = {
  groups_created : int;
  mexprs_added : int;
  merges : int;
  trules_tried : int;
  trules_fired : int;
  irules_tried : int;
  candidates : int;
  prunes : int;
  enforcers_tried : int;
  enforcer_offers : int;
  enforcer_inserts : int;
  memo_hits : int;
}

val totals : t -> totals

(** {1 Timeline} *)

val seen : t -> int
(** Events ever received. *)

val dropped : t -> int
(** Events overwritten by ring wrap-around. *)

val events : t -> (int * Engine.event) list
(** Retained window with sequence numbers, oldest first. *)

(** {1 Rendering} *)

val pp_timeline : ?limit:int -> ?prov_dropped:int -> Format.formatter -> t -> unit
(** Sequence-numbered event lines, oldest first; [limit] keeps only the
    last [limit] retained events. {e Leads} with a WARNING line whenever
    the ring dropped events, so a truncated timeline cannot be mistaken
    for a complete one; [prov_dropped] (the engine's
    [stats.prov_dropped]) adds the same warning for truncated
    provenance lineage. *)

val pp_rules : Format.formatter -> (string * int * int) list -> unit
(** Per-rule tried/fired table, the paper's Table 2–3 shape, from
    [Engine.rule_counters]. *)

val pp_groups : Format.formatter -> t -> unit
(** Per-group activity, sorted by group id. Groups that merged retain
    separate entries under the id current when the events fired. *)

val pp_summary : Format.formatter -> t -> unit

val to_json : ?prov_dropped:int -> rules:(string * int * int) list -> t -> Json.t
(** [{"dropped": n, "prov_dropped": n, "totals": .., "rules": [..],
    "groups": [..], "timeline": {"seen": n, "dropped": n,
    "events": [..]}}] — ["rules"] renders [rules] (the search's
    [Engine.rule_counters]); the top-level ["dropped"] and ["prov_dropped"]
    (plus human-readable [.._warning] fields when nonzero) flag an
    incomplete timeline or truncated provenance lineage without digging
    into the nesting. *)
