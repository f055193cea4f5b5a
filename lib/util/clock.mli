(** The one clock every timer reads: the monotonic wall clock of
    [bechamel.monotonic_clock], in seconds since an arbitrary origin.
    The ZQL-to-rows benchmark takes the same reading, so optimizer
    times, plan-cache times, spans and profiles all lie on its
    timeline. *)

val now : unit -> float
