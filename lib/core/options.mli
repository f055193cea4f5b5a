(** Optimizer options: the cost-model configuration, the set of disabled
    rules, and search knobs. Disabling rules is how the paper "simulates"
    other optimizers: Table 2 disables [join-commute] and (separately)
    restricts the assembly window to one open reference; Figure 9
    disables [collapse-index-scan]. *)

type t = {
  config : Oodb_cost.Config.t;
  disabled : string list;  (** rule names to ignore; see {!rule_names} *)
  pruning : bool;  (** branch-and-bound cost limits (default on) *)
  normalize : bool;
      (** run the {!Argtrans} argument-transformation pass before
          algebraic optimization (default on) *)
  verify : bool;
      (** lint every winning plan with {!Planlint.plan} before returning
          it (default on); {!Optimizer.optimize} raises on violations —
          an unsound rule then fails loudly instead of producing a plan
          that dereferences garbage at run time *)
  cache : bool;
      (** let cache-aware entry points (the [plancache] library) serve
          and store fingerprinted plans (default on); when off they
          bypass lookup and insertion and always optimize cold. Ignored
          by the raw {!Optimizer.optimize}, which is always cold. *)
  feedback_qerror_limit : float;
      (** maximum recorded q-error a cached plan may carry before a
          feedback-gated cache lookup evicts it and forces a re-plan
          with corrected statistics (default 16.0). Like [cache] and
          [verify] this is meta — it never splits cache fingerprints *)
}

val default : t
(** All paper rules enabled. The [warm-assembly] rule — the paper's
    Lesson-7 "warm-start" proposal, implemented here — is {e disabled} by
    default because the paper's own optimizer did not have it (it changes
    the Figure 6 plan); enable it with {!with_warm_start}. *)

val with_warm_start : t -> t
(** Enable the Lesson-7 warm-start assembly algorithm. *)

val rule_names : string list
(** All transformation, implementation and enforcer rule names. *)

val disable : string -> t -> t
(** @raise Invalid_argument for names not in {!rule_names}. *)

val without_join_commutativity : t -> t
(** Table 2's second row. *)

val with_assembly_window : int -> t -> t
(** Table 2's third row uses a window of 1. *)

val with_batch_size : int -> t -> t
(** Tuples per batch in the execution engine (and the cost model's
    amortization term); 1 is the tuple-at-a-time protocol.
    @raise Invalid_argument when below 1. *)

val with_config : Oodb_cost.Config.t -> t -> t

val with_feedback : Oodb_cost.Config.feedback -> t -> t
(** Install runtime-feedback overrides into the cost configuration: the
    estimator (and every rule that prices candidates) consults observed
    statistics before the synthetic model. *)

val without_cache : t -> t
(** Turn {!field-cache} off: cache-aware entry points always optimize cold. *)
