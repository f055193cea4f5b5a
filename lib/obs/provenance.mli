(** Plan provenance and counterfactual explanation, built on the Volcano
    engine's derivation-lineage side-tables. A default
    {!Optimizer.optimize} records none; explanation callers request it
    with [~provenance:true]. The search is deterministic, so that
    recording run replays the default one: the same memo, winner and
    rule counters, plus the lineage.

    Three consumers: [explain --why] (the winner's lineage, bottom-up,
    with rule chains, per-step cost deltas and estimate provenance);
    [why-not SHAPE] (classify where a hypothetical alternative died:
    never derived / derived-but-lost / pruned); and the memo export
    (deterministic JSON and Graphviz DOT of the group/mexpr DAG with
    lineage edges). *)

module Engine = Open_oodb.Model.Engine
module Optimizer = Open_oodb.Optimizer
module Options = Open_oodb.Options
module Physical = Open_oodb.Physical
module Physprop = Open_oodb.Physprop
module Cost = Oodb_cost.Cost
module Json = Oodb_util.Json

val available : Optimizer.outcome -> bool
(** Did this outcome record provenance? False unless the optimizer ran
    with [~provenance:true]. *)

(** {2 Winner lineage: explain --why} *)

type why_step = {
  ws_alg : Physical.t;
  ws_rule : string;  (** implementation rule or enforcer that built the node *)
  ws_group : Engine.group;
  ws_cost : Cost.t;  (** subtree total *)
  ws_local : Cost.t;  (** the node's own (algorithm-local) cost *)
  ws_trules : string list;
      (** transformation chain that derived the implemented
          multi-expression, oldest firing first; [] for enforcer nodes *)
  ws_children : why_step list;
}

val why : Optimizer.outcome -> required:Physprop.t -> (why_step, string) result
(** Walk the winner's recorded derivation from the root goal. [Error]
    when the outcome recorded no provenance or no winner. *)

val replay_rules : Optimizer.outcome -> required:Physprop.t -> string list
(** Transformation rules in the winner's transitive derivation, deduped
    and sorted — the set the lineage-replay invariant re-optimizes with. *)

val est_annotations :
  ?config:Oodb_cost.Config.t ->
  Oodb_catalog.Catalog.t ->
  Optimizer.outcome ->
  Cardest.t option
(** Per-node cardinality estimates (with feedback/model source) aligned
    with the chosen plan — and hence with the {!why} tree. *)

val pp_why : ?est:Cardest.t -> Format.formatter -> why_step -> unit
(** Bottom-up transcript: post-order steps, each naming its producing
    rule, derivation chain, per-step cost and (when [est] is given)
    estimated rows with their source. *)

val why_json : ?est:Cardest.t -> why_step -> Json.t

(** {2 Why-not: counterfactual classification} *)

(** The alternative plan shape being asked about. *)
type shape =
  | Force_index of string  (** index name; [""] matches any index scan *)
  | Force_join of string  (** ["hash"] | ["merge"] | ["pointer"] *)
  | Force_scan of string  (** collection name; [""] matches any file scan *)
  | Force_alg of string  (** any algorithm by label, e.g. ["sort"] *)

val alg_label : Physical.t -> string

val shape_to_string : shape -> string

val shape_matches : shape -> Physical.t -> bool

val producing_rules : shape -> string list
(** The implementation rules/enforcers that could produce the shape. *)

val shape_of_alg : Physical.t -> shape
(** The most specific shape matching an algorithm — how the
    effectiveness report turns a better sampled plan's distinguishing
    operator into a why-not question. *)

(** Where the alternative died. *)
type verdict =
  | Chosen of { cost : Cost.t }
      (** not a death: the winning plan already uses the shape *)
  | Never_derived of { rules : string list; disabled : string list }
      (** no candidate with the shape was ever costed; [rules] names the
          producing rules, [disabled] the subset currently disabled *)
  | Derived_but_lost of {
      group : Engine.group;
      required : Physprop.t;
      alt_rule : string;
      alt_alg : Physical.t;
      alt_cost : Cost.t;
      winner_rule : string;
      winner_alg : Physical.t;
      winner_cost : Cost.t;
      gap : Cost.delta;
    }
      (** a candidate completed but lost on cost to the winner of its own
          (group, required) goal; [gap] decomposes the loss into io/cpu *)
  | Pruned_away of {
      group : Engine.group;
      rule : string;
      alg : Physical.t;
      local_cost : Cost.t;
      limit : Cost.t;
      margin : Cost.t;
      mode : string;  (** ["candidate"] | ["subgoal"] | ["abandoned"] *)
    }
      (** every matching candidate died under the branch-and-bound limit;
          the record replays the bound and margin of the closest call *)

type classification = { cl_shape : shape; cl_verdict : verdict; cl_dropped : int }

val classify :
  ?options:Options.t ->
  ?replay:(Options.t -> Optimizer.outcome) ->
  Optimizer.outcome ->
  shape ->
  (classification, string) result
(** Classify why the shape is absent from the chosen plan. [options]
    should be the options the outcome was optimized under (used to tell
    a disabled producing rule from an inapplicable one, and to decide
    whether a prune may be escalated). A completed match that won its
    own goal is chased upward through its consumers to where the
    subtree carrying it actually lost or was pruned.

    [replay], when given, re-optimizes the same query under modified
    options with provenance recording on (a replay without lineage
    leaves the verdict unescalated). It is used for one escalation
    only: under exhaustive (non-guided) branch-and-bound, a prune is a
    short-circuited cost comparison, so a pruned (or blocked-path
    never-derived) verdict is
    re-derived with [pruning = false]; if the completed search shows
    the alternative losing on cost, the verdict upgrades to
    {!Derived_but_lost} with the true gap. Guided-mode refusals are
    reported as {!Pruned_away} and never second-guessed.

    [Error] when provenance was not recorded. *)

val verdict_label : verdict -> string
(** ["chosen"] | ["never-derived"] | ["derived-but-lost"] | ["pruned"]. *)

val pp_classification : Format.formatter -> classification -> unit

val classification_json : classification -> Json.t

(** {2 Memo export} *)

val memo_schema_version : int

val memo_json : Optimizer.outcome -> required:Physprop.t -> Json.t
(** Deterministic JSON dump of the group/mexpr DAG with lineage edges,
    the candidate log with dispositions, and the winner path. Two runs
    of the same query produce bit-identical output (no timestamps,
    hashtable orders, or pointers leak in). *)

val memo_dot : Optimizer.outcome -> required:Physprop.t -> string
(** Graphviz DOT of the same DAG: groups as boxes, live mexprs as
    ellipses, lineage edges dashed and labeled with the producing rule;
    the winner path is bold red, pruned-everywhere mexprs dashed. *)

val cost_json : Cost.t -> Json.t
