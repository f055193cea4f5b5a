(** Metrics registry: named counters, gauges, timers and log-bucketed
    latency histograms with scoped snapshots and JSON serialization.

    A registry is a flat namespace of metrics created on first use
    (conventionally slash-separated, e.g. ["q1/opt/groups"]). Snapshots
    are immutable copies; [diff] subtracts two snapshots of the same
    registry so a caller can attribute activity to a scope (a query, a
    request, a benchmark iteration) without resetting anything — the
    pattern {!scoped} packages. A name keeps the kind it was created
    with; re-using it as a different kind raises, surfacing telemetry
    bugs at the emission site instead of corrupting the report. *)

module Json = Oodb_util.Json

type t

val create : unit -> t

(** {1 Instruments} *)

val incr : ?by:int -> t -> string -> unit
(** Counter: monotonically increasing integer. [by] defaults to 1.
    @raise Invalid_argument if [by] is negative or the name is registered
    with a different kind. *)

val set : t -> string -> float -> unit
(** Gauge: last-write-wins float. *)

val observe : t -> string -> float -> unit
(** Timer: record one duration in seconds; the registry accumulates
    total, count and max. *)

val observe_hist : t -> string -> float -> unit
(** Histogram: record one sample into geometric buckets (factor-of-two
    boundaries from 1 µs, with an overflow bucket above the top bound).
    Count, sum, and exact min/max are tracked alongside the buckets, so
    {!percentile} snapshots are exact for single-sample, all-equal and
    overflow-bucket distributions. *)

(** {1 Snapshots} *)

type hsnap = {
  count : int;
  sum : float;
  min : float;  (** exact observed minimum ([infinity] when empty) *)
  max : float;  (** exact observed maximum ([neg_infinity] when empty) *)
  counts : int array;  (** per-bucket counts, indexed like {!bucket_bounds} *)
}

type value =
  | Counter of int
  | Gauge of float
  | Timer of { total : float; count : int; max : float }
  | Histogram of hsnap

type snapshot = (string * value) list
(** Sorted by name. *)

val bucket_bounds : float array
(** Inclusive upper bounds of the histogram buckets; the last entry is
    [infinity] (the overflow bucket). *)

val percentile : hsnap -> float -> float option
(** [percentile h q] for [q] in [0, 1]: [None] when the histogram is
    empty, otherwise the upper bound of the bucket
    holding the [ceil (q * count)]'th smallest sample, clamped into the
    exact [[min, max]] — so the result never leaves the observed range,
    and degenerate distributions (one sample, all samples in one bucket,
    rank landing in the overflow bucket) come back exact. [nan] when the
    histogram is empty. *)

val snapshot : t -> snapshot

val find : snapshot -> string -> value option

val diff : before:snapshot -> after:snapshot -> snapshot
(** Per-name delta: counters, timer totals/counts and histogram
    bucket counts subtract (a metric absent from [before] counts from
    zero); gauges keep their [after] value (instantaneous readings have
    no meaningful delta); timer and histogram [min]/[max] are the
    [after] extrema. Names only in [before] are dropped. *)

val scoped : t -> (unit -> 'a) -> 'a * snapshot
(** Run the thunk and return what the registry accumulated during it. *)

val to_json : snapshot -> Json.t
(** An object keyed by metric name; counters as ints, gauges as floats,
    timers as [{"total": s, "count": n, "max": s}], histograms as
    [{"count", "sum", "min", "max", "p50", "p95", "p99", "buckets":
    [{"le", "count"}, ..]}] (occupied buckets only; the overflow
    bucket's bound serializes as [null]). *)

val pp : Format.formatter -> snapshot -> unit
(** One ["name value"] line per metric. *)
