(** Hierarchical span collection: begin/end scopes with well-formed
    nesting, exported as Chrome trace-event JSON (loadable in
    ui.perfetto.dev).

    A collector is threaded through the pipeline as a [t option]; [None]
    is the nil-sink fast path — every emission site is a single match
    and constructs nothing. Spans must nest: {!end_} enforces that the
    span being closed is the innermost open one and raises otherwise, so
    a collected stream is well-formed by construction ({!with_span}
    guarantees it even across exceptions).

    The clock defaults to {!Clock.now}, the monotonic clock every timer
    reads. The profiler stamps its operator spans with readings of the
    collector's own clock, so span durations and profiler wall times
    are directly comparable; pass explicit [ts] values to share the
    exact same readings. Timestamps are stored relative to the
    collector's creation. *)

type event = {
  ev_ph : [ `B | `E ];
  ev_name : string;
  ev_cat : string;  (** empty on [`E]; filled from the matching [`B] at export *)
  ev_ts : float;  (** seconds since the collector was created *)
  ev_args : (string * Json.t) list;
}

type t

val create : ?clock:(unit -> float) -> unit -> t

val clock : t -> unit -> float
(** The collector's clock: raw readings to pass as [ts]. *)

val begin_ : ?args:(string * Json.t) list -> ?ts:float -> t -> cat:string -> string -> unit
(** Open a span. [ts] is a raw clock reading (defaults to reading the
    collector's clock). *)

val end_ : ?args:(string * Json.t) list -> ?ts:float -> t -> string -> unit
(** Close the innermost open span, which must carry this name.
    @raise Invalid_argument on a nesting violation. *)

val with_span :
  ?args:(string * Json.t) list -> t option -> cat:string -> string -> (unit -> 'a) -> 'a
(** [with_span spans ~cat name f] runs [f] inside a span when [spans] is
    [Some _], closing it even when [f] raises; with [None] it is just
    [f ()]. *)

val depth : t -> int
(** Number of currently open spans. *)

val count : t -> int
(** Total events recorded. *)

val events : t -> event list
(** In chronological order. *)

val to_chrome : ?pid:int -> ?tid:int -> t -> Json.t
(** Chrome trace-event JSON:
    [{"displayTimeUnit": "ms", "traceEvents": [{"name", "cat", "ph",
    "ts", "pid", "tid", "args"?}, ..]}] with [ts] in microseconds. *)

val well_formed : t -> (unit, string) result
(** [Ok ()] iff no span is still open and every [`E] closes the most
    recent unmatched [`B] of the same name. *)
