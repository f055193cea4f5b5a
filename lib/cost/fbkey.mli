(** Canonical keys for runtime cardinality feedback.

    A feedback key must identify "the same predicate atom" across
    queries, plan shapes and memo forms. Binder names are
    alpha-varying and provenance chains differ between a Mat spine and
    its Mat-to-Join rewrite, so operands are keyed by the {e class} of
    their binding (one class per memo group, enforced by the typing
    hook) plus the field; constants carry a tagged serialization.
    Atoms are oriented smaller-operand-left with the comparison
    flipped, mirroring the plan-cache fingerprint, so [a = b] and
    [b = a] share a key. *)

val atom : env:Lprops.t -> Oodb_algebra.Pred.atom -> string option
(** [None] when a binding's class cannot be resolved in [env] — such an
    atom gets no feedback. *)

val fanout : cls:string -> field:string -> string
(** Key for the average set-valued fanout of [cls.field] (Unnest). *)
