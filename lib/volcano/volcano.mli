(** A re-implementation of the Volcano optimizer generator (Graefe &
    McKenna, ICDE 1993) as a generic OCaml library.

    Where the original translated a model description file into C source,
    here the data model is an OCaml module satisfying {!MODEL} and the
    optimizer implementor supplies transformation rules, implementation
    rules, enforcers and property/cost support functions as first-class
    values in a {!module-Make.spec}. The engine contributes what Volcano
    contributed: the memo structure, exhaustive logical closure under the
    transformation rules, and goal-directed top-down search over
    (group, required physical properties) pairs with memoization,
    branch-and-bound pruning, and enforcer introduction.

    The search is {e goal-directed}: it "considers only those subplans
    that can deliver the physical properties that are required by the
    algorithm of the containing plan" (paper §4), in contrast to
    bottom-up optimizers that keep all subplans with a priori
    "interesting" properties. *)

(** Kind-tagged packed ids: a table index in the high bits, a 2-bit kind
    tag (group / multi-expression / physical-memo entry) in the low bits.
    The memo stores its rows in flat growable tables indexed by these
    ids; packing lets heterogeneous worklists, journals and trace sinks
    carry one immediate [int] instead of a boxed variant. Public group
    ids remain plain table indexes (kind tag stripped) for backward
    compatibility. *)
module Id : sig
  type kind = Group | Mexpr | Phys

  val make : kind -> int -> int
  (** @raise Invalid_argument when the index overflows the tag field. *)

  val to_idx : int -> int

  val kind_of : int -> kind

  val pp : Format.formatter -> int -> unit
end

(** Data-model types and their basic operations. *)
module type MODEL = sig
  module Op : sig
    type t
    (** logical operator, including its arguments *)

    val arity : t -> int

    val equal : t -> t -> bool

    val hash : t -> int

    val pp : Format.formatter -> t -> unit
  end

  module Alg : sig
    type t
    (** physical algorithm or enforcer, including its arguments *)

    val pp : Format.formatter -> t -> unit
  end

  module Lprop : sig
    type t

    val pp : Format.formatter -> t -> unit
  end

  module Typ : sig
    type t
    (** inferred logical type of a group (schema, scoping, duplicate
        semantics) — the currency of the memo-wide type invariant *)

    val equal : t -> t -> bool

    val pp : Format.formatter -> t -> unit
  end

  module Pprop : sig
    type t
    (** physical property vector *)

    val equal : t -> t -> bool

    val hash : t -> int

    val satisfies : delivered:t -> required:t -> bool
    (** Does a plan delivering the first vector meet the second? Must be
        a partial order: reflexive and transitive. *)

    val pp : Format.formatter -> t -> unit
  end

  module Cost : sig
    type t

    val zero : t

    val add : t -> t -> t

    val sub : t -> t -> t
    (** Used only for branch-and-bound limit arithmetic. *)

    val slack : t
    (** Tolerance for branch-and-bound {e discard} decisions: a
        candidate, subgoal or memoized plan is refused only when it
        exceeds the limit by more than [slack]; anything at the boundary
        survives to the exact [compare] that picks the winner. Limits
        are propagated with [sub], whose componentwise rounding can
        drift from the exact algebraic value by a few ulps — without
        slack that drift makes the bounded search discard plans the
        exhaustive enumeration keeps (observed as one-ulp winner-cost
        differences). Pick [slack] far above the rounding drift and far
        below any real cost difference; [zero] is sound for optimality
        up to [slack] but loses exact-winner parity. *)

    val compare : t -> t -> int

    val infinite : t

    val pp : Format.formatter -> t -> unit
  end
end

module Make (M : MODEL) : sig
  type group = int
  (** Equivalence class of logical expressions in the memo. *)

  exception Type_violation of string
  (** Raised (only when a [typing] hook is installed) the moment the
      memo-wide type invariant breaks: a rule produced an expression
      that does not typecheck, or whose type differs from its group's,
      or two groups with different types were merged. The message names
      the offending operator and both types. *)

  type mexpr = { mop : M.Op.t; minputs : group list }
  (** Multi-expression: an operator over input groups. *)

  (** Expression produced by a transformation rule: fresh nodes over
      existing groups. *)
  type build =
    | Node of M.Op.t * build list
    | Ref of group

  type ctx
  (** Read access to the memo for rules. *)

  (** Structured search-trace events for the observability layer. Events
      are emitted at exactly the points where {!stats} and
      {!rule_counters} increment, so aggregating a complete event stream
      reproduces both: per rule, [tried] is the count of
      [Trule_tried]/[Irule_tried]/[Enforcer_tried] and [fired] the count
      of [Trule_fired]/[Candidate_costed]/[Enforcer_offered]. No events
      are constructed when no tracer is installed (the nil-sink fast
      path). *)
  type event =
    | Group_created of { group : group }
    | Mexpr_added of { group : group; op : M.Op.t }
    | Groups_merged of { winner : group; loser : group }
    | Trule_tried of { rule : string; group : group }
    | Trule_fired of { rule : string; group : group }
        (** the transformation added a new multi-expression to the group,
            or merged it with another group *)
    | Irule_tried of { rule : string; group : group }
    | Candidate_costed of { rule : string; group : group; alg : M.Alg.t; cost : M.Cost.t }
    | Pruned of { group : group; alg : M.Alg.t; cost : M.Cost.t; limit : M.Cost.t }
        (** branch-and-bound: the candidate's local cost already exceeds
            the current limit, so its inputs are never optimized *)
    | Subgoal_pruned of { group : group; required : M.Pprop.t }
        (** guided search: the budget left for this input subgoal was
            already negative, so the subgoal was never expanded (the
            exhaustive search would have recursed and failed — same
            winner, more work) *)
    | Enforcer_tried of { rule : string; group : group }
    | Enforcer_offered of { rule : string; group : group; alg : M.Alg.t; cost : M.Cost.t }
    | Enforcer_inserted of { group : group; alg : M.Alg.t }
        (** an offer's input subplan was found within the limit, so the
            enforcer actually entered a plan under consideration *)
    | Phys_memo_hit of { group : group; required : M.Pprop.t }

  val group_lprop : ctx -> group -> M.Lprop.t

  val group_typ : ctx -> group -> M.Typ.t option
  (** The group's inferred type; [None] when no [typing] hook was
      installed for the session. With a hook installed, every group with
      at least one multi-expression has a type. *)

  val group_exprs : ctx -> group -> mexpr list
  (** All multi-expressions currently in a group (logical closure runs to
      a fixpoint before physical search starts, so during implementation
      rules this is the complete set). *)

  val groups : ctx -> group list
  (** Canonical group ids (union-find roots), in creation order — the
      hook static analyses use to sweep the whole memo. *)

  val rule_counters : ctx -> (string * int * int) list
  (** Per-rule [(name, tried, fired)] instrumentation, sorted by name.
      "Fired" means: a transformation added a new multi-expression or
      merged two groups; an implementation rule produced a candidate; an
      enforcer produced an offer. Rules that were never invoked (e.g.
      disabled ones) have no entry. *)

  val closure_complete : ctx -> bool
  (** [false] when a [closure_fuel] budget interrupted the logical
      closure before its fixpoint — the signature of a non-terminating
      rule cycle when the budget was generous. *)

  type trule = {
    t_name : string;
    t_apply : ctx -> mexpr -> build list;
        (** alternatives equivalent to the given multi-expression; the
            engine inserts them into the same group *)
  }

  type candidate = {
    cand_alg : M.Alg.t;
    cand_inputs : (group * M.Pprop.t) list;
        (** input groups with the properties the algorithm requires of
            them; rules may reach through to descendant groups (that is
            how collapse-to-index-scan consumes a Select-Mat-Get spine
            with zero plan inputs) *)
    cand_cost : M.Cost.t;  (** local cost of the algorithm itself *)
    cand_delivers : M.Pprop.t;
  }

  type coster = required:M.Pprop.t -> candidate list
  (** The costing step of an implementation rule that matched one
      multi-expression: the candidates it offers a goal with the given
      required properties (possibly none). *)

  type irule = {
    i_name : string;
    i_promise : int;
        (** scheduling hint for guided search: rules with higher promise
            are applied first (ties keep registration order), so cheap or
            high-yield algorithms tighten the branch-and-bound limit
            before expensive alternatives are costed. Ignored — and
            invisible in results — outside guided mode. *)
    i_match : ctx -> mexpr -> coster option;
        (** The match step, as in Volcano, where a rule's applicability
            condition and its cost function are separate: [None] when the
            rule does not apply to the multi-expression, otherwise its
            coster. The match does everything that does not depend on the
            required properties (input scopes, join keys, output
            cardinality, index and Mat-chain matches) once; the engine
            calls it once per multi-expression and memo generation, keeps
            the coster, and calls only the coster for each goal. *)
  }

  type enforcer = {
    e_name : string;
    e_apply : ctx -> required:M.Pprop.t -> group -> (M.Alg.t * M.Pprop.t * M.Cost.t) list;
        (** ways to achieve [required] on this group's output: the
            enforcer algorithm, the (weaker) properties required of its
            input plan, and the enforcer's local cost *)
  }

  type spec = {
    derive_lprop : M.Op.t -> M.Lprop.t list -> M.Lprop.t;
    transformations : trule list;
    implementations : irule list;
    enforcers : enforcer list;
  }

  type plan = {
    alg : M.Alg.t;
    children : plan list;
    cost : M.Cost.t;  (** total cost of the subtree *)
    delivered : M.Pprop.t;
  }

  type stats = {
    groups : int;
    mexprs : int;
    trule_fired : int;  (** transformation applications that added a new mexpr *)
    trule_tried : int;
    candidates : int;  (** implementation candidates costed *)
    pruned_candidates : int;
        (** candidates whose local cost already exceeded the limit *)
    pruned_subgoals : int;
        (** input subgoals never expanded because the remaining budget
            was negative (guided search only; always 0 otherwise) *)
    enforcer_uses : int;
    phys_memo_hits : int;
    closure_steps : int;  (** multi-expressions popped during logical closure *)
    closure_complete : bool;  (** [false] iff a [closure_fuel] budget ran out *)
    prov_records : int;
        (** provenance rows recorded (mexpr lineage + candidate log);
            0 when provenance is off *)
    prov_dropped : int;
        (** candidate-log rows dropped at the provenance cap — nonzero
            means the lineage is truncated and explanations built on it
            are incomplete *)
  }

  type expr = Expr of M.Op.t * expr list
  (** Input logical expression tree. *)

  type result = {
    plan : plan option;
    stats : stats;
    root : group;
    ctx : ctx;  (** memo snapshot, for inspection and tests *)
  }

  type session
  (** One memo shared across any number of query roots: the logical
      groups {e and} the physical [(group, required-properties)] table
      both persist across {!register}/{!solve} calls, so a subexpression
      common to several queries is expanded by the transformation rules,
      costed and pruned once — memo-level multi-query optimization in
      the style of Roy et al. (SIGMOD 2000), restricted to sharing the
      search (plans themselves are still per-root trees). *)

  val session :
    ?disabled:string list ->
    ?pruning:bool ->
    ?guided:bool ->
    ?closure_fuel:int ->
    ?trace:(event -> unit) ->
    ?spans:Oodb_util.Span.t ->
    ?typing:(M.Op.t -> M.Typ.t list -> (M.Typ.t, string) Stdlib.result) ->
    ?provenance:bool ->
    ?provenance_cap:int ->
    spec ->
    session
  (** Fresh session with an empty memo.

      [provenance] (default [false]) turns on derivation-lineage
      recording in flat [Vec] side-tables parallel to the memo: every
      multi-expression records the transformation rule that produced it,
      the packed id of the multi-expression the rule fired on, and a
      global firing sequence number; every physical candidate and
      enforcer offer gets a candidate-log row whose disposition
      ({!disposition}) records whether it was kept, pruned (with the
      bound and margin at the decision point), or abandoned. Like
      [trace], the off state is a nil-sink fast path. [provenance_cap]
      (default [2^20]) bounds the candidate log; rows beyond it are
      counted in [stats.prov_dropped] instead of stored.

      [guided] (default [false]) turns on cost-bounded guided search:
      implementation rules are applied in [i_promise] order, all
      candidates of a goal are costed cheapest-local-cost first (so the
      branch-and-bound limit tightens before expensive alternatives),
      and an input subgoal whose remaining budget is already negative is
      skipped without being expanded. Guided search returns plans with
      exactly the same cost as the exhaustive search (skipping a
      dominated subgoal only avoids work the exhaustive search performs
      and then discards, since costs are non-negative) — it changes how
      fast the winner is found, never which winner.

      [closure_fuel] is a budget over
      the session's total closure steps (all [register] calls share it).
      Statistics and rule counters accumulate over the session's
      lifetime; each {!solve} result carries a snapshot. [spans]
      collects one hierarchical span per search phase — ["intern"] and
      ["logical-closure"] under each {!register}, ["physical-search"]
      under each {!solve} — category ["volcano"]; when absent no span
      events are constructed.

      [typing] installs the memo-wide type invariant: the hook derives
      the type of an operator from its input groups' types (or reports a
      type error). Every interned multi-expression is then checked —
      first mexpr of a group sets the group's type, every later one must
      derive an equal type, and merged groups must agree — and any
      failure raises {!Type_violation} at the exact rule firing that
      caused it. When absent, no types are derived and interning cost is
      unchanged. *)

  val session_ctx : session -> ctx

  val register : session -> expr -> group
  (** Intern a root expression into the shared memo and run the logical
      closure over whatever is new. Registering an expression whose every
      node is already present adds nothing, fires no rules, and simply
      returns the existing root group. For best sharing, register all
      roots of a batch before solving any of them: physical-memo entries
      computed before the logical memo grew are conservatively
      re-searched, so interleaving register and solve costs repeated
      search work (never a stale plan). *)

  val solve : session -> ?initial_limit:M.Cost.t -> group -> required:M.Pprop.t -> result
  (** Goal-directed physical search for a registered root. Solving the
      same (root, required) pair again is a pure memo hit: no rules are
      tried, no candidates costed. [result.stats] snapshots the
      session-cumulative statistics at completion. *)

  val run :
    ?disabled:string list ->
    ?pruning:bool ->
    ?guided:bool ->
    ?initial_limit:M.Cost.t ->
    ?closure_fuel:int ->
    ?trace:(event -> unit) ->
    ?spans:Oodb_util.Span.t ->
    ?typing:(M.Op.t -> M.Typ.t list -> (M.Typ.t, string) Stdlib.result) ->
    ?provenance:bool ->
    ?provenance_cap:int ->
    spec ->
    expr ->
    required:M.Pprop.t ->
    result
  (** Optimize [expr] for the required properties. [disabled] names
      transformation/implementation/enforcer rules to ignore (the paper
      "simulates" other optimizers this way). [pruning] (default [true])
      enables branch-and-bound cost limits. [initial_limit] seeds the
      branch-and-bound budget — e.g. with the cost of a plan found by a
      heuristic optimizer (Volcano's "heuristic guidance" mechanism);
      the result is [None] if no plan at or below the limit exists.
      [closure_fuel] bounds logical-closure work (multi-expressions
      popped); when it runs out, closure stops early and
      [stats.closure_complete] is [false] — the rule-set analyzer uses
      this to flag non-terminating rule cycles without hanging.
      [trace] receives every {!event} of the search as it happens (the
      sink must not re-enter the engine); when absent, no events are
      constructed. *)

  (** {2 Provenance}

      Derivation lineage recorded (when the session was created with
      [~provenance:true]) in flat side-tables parallel to the memo's
      packed representation. Two table families: per-mexpr lineage rows
      (producing rule, parent id, firing sequence) and the candidate log
      (one row per physical candidate or enforcer offer, with its final
      disposition). All of it is read-only after a solve. *)

  (** How a logged candidate ended. [margin] is the amount by which the
      bound was exceeded at the decision point (before the [Cost.slack]
      tolerance): for [Pruned_candidate] the candidate's local cost
      versus the limit then in force; for [Pruned_subgoal] the committed
      cost overrun when the remaining budget for the named subgoal went
      negative (guided mode only). [Abandoned] candidates never
      completed for another reason — the delivered property failed the
      requirement, or a child goal found no plan within its budget. *)
  type disposition =
    | Kept of M.Cost.t  (** completed with this full plan cost *)
    | Pruned_candidate of { limit : M.Cost.t; margin : M.Cost.t }
    | Pruned_subgoal of {
        subgoal : group;
        subgoal_required : M.Pprop.t;
        limit : M.Cost.t;
        margin : M.Cost.t;
      }
    | Abandoned

  type lineage = {
    lin_id : int;  (** packed mexpr id ({!Id} kind [Mexpr]) *)
    lin_group : group;  (** canonical owning group *)
    lin_op : M.Op.t;
    lin_inputs : group list;  (** canonical input groups *)
    lin_rule : string option;  (** producing trule; [None] = root intern *)
    lin_parent : int option;  (** packed mexpr id the rule fired on *)
    lin_seq : int;  (** global firing sequence number *)
    lin_alive : bool;
  }

  type cand_record = {
    cr_index : int;  (** stable index in the candidate log *)
    cr_seq : int;
    cr_group : group;
    cr_required : M.Pprop.t;
    cr_rule : string;  (** implementation rule or enforcer name *)
    cr_mexpr : int option;
        (** packed id of the implementing mexpr; [None] for enforcer
            offers *)
    cr_alg : M.Alg.t;
    cr_local_cost : M.Cost.t;
    cr_inputs : (group * M.Pprop.t) list;
    cr_disposition : disposition;
  }

  val provenance_on : ctx -> bool

  val lineage : ctx -> int -> lineage option
  (** Lineage row of a packed mexpr id; [None] when provenance is off or
      the id is unknown. *)

  val lineages : ctx -> lineage list
  (** All lineage rows, in mexpr-id (= interning) order. *)

  val rule_chain : ctx -> int -> string list
  (** Transformation-rule chain that derived the given mexpr, oldest
      firing first, following parent pointers back to a root intern.
      Empty when provenance is off. *)

  val cand_records : ctx -> cand_record list
  (** The whole candidate log, in costing order. *)

  val cand_record : ctx -> int -> cand_record option

  val provenance_dropped : ctx -> int
  (** Candidate-log rows dropped at the cap; nonzero means the log (and
      anything derived from it) is incomplete. *)

  val winner_of : ctx -> group -> required:M.Pprop.t -> cand_record option
  (** The candidate that produced the current best plan of a searched
      (group, required) goal — the root of the winner's derivation walk:
      its [cr_inputs] name the child goals, whose own winners are the
      plan's subtrees; its [cr_mexpr]'s {!rule_chain} is the logical
      derivation of the implemented expression. *)

  val pp_plan : Format.formatter -> plan -> unit

  val plan_to_tree : plan -> Oodb_util.Pretty.tree

  val pp_memo : Format.formatter -> ctx -> unit
  (** Dump of all groups and their multi-expressions. *)
end
