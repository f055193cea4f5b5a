(** Cost abstract data type.

    As in the paper, cost is "encapsulated in an abstract data type" and
    plans are compared on anticipated total execution time; the I/O and
    CPU components are kept separate only for explanation output. *)

type t = { io : float; cpu : float }
(** Both components in seconds. *)

val zero : t

val io : float -> t

val cpu : float -> t

val make : io:float -> cpu:float -> t

val add : t -> t -> t

val sub : t -> t -> t
(** Componentwise difference; used for branch-and-bound limit budgets. *)

val slack : t
(** One nanosecond ({!total}); the tolerance the search engine adds to
    a branch-and-bound limit before discarding a candidate or memoized
    plan. Limits propagate through {!sub}, whose componentwise rounding
    drifts from the exact algebraic value by ulps ([1e-17]-ish at
    second-scale costs); a discard exactly at the boundary would then
    drop plans the unpruned enumeration keeps, breaking the winner-cost
    contract that the pruned search equals the unpruned one. [1e-9] is
    ~8 orders of magnitude above the drift and far below any modelled
    cost difference between genuinely distinct plans. *)

val sum : t list -> t

val total : t -> float

val compare : t -> t -> int
(** By total seconds; exact ties broken by the io component, then cpu
    (the rounded sum [io +. cpu] does not determine the components).
    Equal-total plans with different io/cpu splits
    are genuine ties for the cost model, but the search keeps whichever
    it meets first — and a parent plan folds the chosen child's io and
    cpu into its own sums, so two tied children perturb the parent's
    total at the ulp level. The tie-break makes the winner independent
    of enumeration order, which the winner-cost contract (pruned equals
    unpruned) relies on. *)

val ( <= ) : t -> t -> bool

val infinite : t
(** Upper bound used as the initial branch-and-bound limit. *)

val is_finite : t -> bool

val pp : Format.formatter -> t -> unit
(** e.g. [119.60s (io 118.52 + cpu 1.08)]. *)

type delta = { d_io : float; d_cpu : float; d_total : float; d_ratio : float }
(** Decomposed gap between two plans' costs: componentwise loser − winner
    differences, the total-seconds difference, and the loser/winner
    total ratio ([1.0] for two zero-cost plans, [infinity] when only the
    winner is free). The explanation layer ([why-not]'s
    derived-but-lost report) uses this to say {e where} the gap lives. *)

val delta : winner:t -> loser:t -> delta

val pp_delta : Format.formatter -> delta -> unit
(** e.g. [+12.40s (io +12.10, cpu +0.30; 11.6x)]. *)
