(** Benchmark history and the regression gate.

    A history ([BENCH_history.jsonl]) is a log of runs of the ZQL-to-rows
    benchmark ([zqlbench]), one JSON record per line. A record is the
    result line the benchmark prints — whether every answer was correct,
    the operations attempted and failed, and its metrics by name — plus
    the commit, the date, the workload and the seed of the run.
    [oodb bench-record] makes records from saved benchmark output, and
    [oodb bench-compare] compares a candidate history with a baseline:
    each end-to-end metric's median over the runs of each side's newest
    commit is judged by its bound in BENCHMARK.json, and per-layer
    metrics are printed but never gate. *)

type record = {
  sha : string;  (** [git describe --always --dirty] of the measured tree *)
  date : string;  (** ISO 8601, UTC *)
  workload : string;
  seed : int;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * (float * string)) list;
      (** name -> (value, unit), sorted by name *)
}

val to_json : record -> Oodb_util.Json.t

val of_json : Oodb_util.Json.t -> (record, string) result

val of_capture : sha:string -> date:string -> string -> (record, string) result
(** The record of one saved benchmark stdout: the workload and seed come
    from its [traffic: workload=W seed=N ...] line, the result from its
    last non-blank line. *)

val load : string -> (record list, string) result
(** Parse a whole JSONL file, oldest record first. Blank lines are
    skipped; the first line that is not a record fails the load with its
    line number. *)

(** {1 The gate} *)

type bound
(** A metric's [better] direction and relative [bound]. *)

val bounds : string -> ((string * bound) list, string) result
(** The end-to-end metrics of a BENCHMARK.json file, with their bounds. *)

type delta
(** One metric of one workload, old against new, with the number of
    records each side's value is the median of and the value past which
    it regresses; a per-layer metric never gates. The failed share is
    compared as the metric ["failed_share"]. *)

type comparison = {
  c_deltas : delta list;
  c_incorrect : string list;  (** candidate workloads with wrong answers *)
  c_missing : string list;  (** baseline workloads with no candidate record *)
  c_unmatched : (string * string) list;
      (** candidate (workload, metric) pairs no baseline record carries *)
}

val compare :
  bounds:(string * bound) list -> baseline:record list -> candidate:record list -> comparison
(** Per workload and metric, each side's value is the median over its
    records of that workload that carry the metric and come from the
    commit of the newest such record; older commits' records are
    ignored. The candidate's median is judged against the baseline's: a
    metric with a bound regresses past [old × (1 - bound)] when higher
    is better and past [old × (1 + bound)] when lower is. Every
    candidate record's failed share ([failed / attempted]) is compared
    with that of the baseline's newest record of its workload, and any
    rise regresses. *)

val regressed : comparison -> bool
(** A delta regressed, or a candidate reported wrong answers. *)

val pp_comparison : Format.formatter -> comparison -> unit
(** One line per delta and per listed workload or metric, then
    [RESULT: ok] or [RESULT: regression detected]. *)
