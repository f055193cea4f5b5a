(** A scenario: one generated schema, its synthetic database and index
    configuration, and a set of ZQL queries over it — everything the
    differential harness ({!Differential}) and effectiveness scorer
    ({!Effectiveness}) need, derived deterministically from
    [(seed, index)].

    Determinism contract: {!generate} is a pure function of [seed] and
    [index] (scenario streams are independent, so generating scenarios
    [0..9] yields the same first ten scenarios as generating [0..99]),
    and {!build_db} is a pure function of the scenario; {!digest}
    witnesses both. *)

type query_case = {
  qc_name : string;  (** [lookup], [rich], [setop], [rand0]... *)
  qc_ast : Zql.Ast.query;
  qc_zql : string;  (** [Zql.Ast.to_zql qc_ast] — what harnesses compile *)
}

type t = {
  sc_seed : int;
  sc_index : int;
  sc_schema : Schemagen.t;
  sc_queries : query_case list;
}

val generate : ?join_width:int -> seed:int -> index:int -> unit -> t
(** [join_width] (>= 2) appends a [wide] chain-join query to the fixed
    mix (see {!Querygen.generate}); with the knob off the scenario is
    bit-identical to what earlier versions generated. *)

val base_catalog : Schemagen.t -> Oodb_catalog.Catalog.t
(** Catalog with the spec's collections but no measured statistics or
    indexes — enough for the simplifier, used to validate queries during
    generation. *)

val build_db : ?corrupt:bool -> t -> Oodb_exec.Db.t
(** Fresh store + catalog (measured statistics) + physical indexes for
    the scenario. [corrupt] additionally skews the anchor class's
    [name] statistics (class distinct and index [ix_distinct]) down to
    2, the {!Oodb_workloads.Datagen.generate_skewed} pattern — the
    effectiveness negative control. *)

val digest : ?db:Oodb_exec.Db.t -> t -> string
(** Hex digest covering the schema, every query's ZQL text, the catalog
    digest and a full dump of the stored objects. Equal digests mean
    equal optimizer inputs end to end. Builds the database unless one is
    passed in. *)

val objects_digest : Oodb_storage.Store.t -> string list -> string
(** Hex digest of the dump {!digest} covers: every object of the listed
    collections, in order, field by field. *)

val to_json : t -> Oodb_util.Json.t
