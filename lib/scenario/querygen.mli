(** Random ZQL queries over a generated schema ({!Schemagen.t}).

    Each scenario gets a fixed mix: an indexed anchor [lookup], a
    multi-way anchor-rooted [rich] join (the effectiveness-sampling
    workhorse), a [setop] query (UNION/INTERSECT/EXCEPT with
    scope-identical branches), and {!n_random} free-form queries that
    may mix joins in both reference directions, set-valued ranges, deep
    path predicates, correlated EXISTS subqueries, projections and ORDER
    BY. All queries are returned as abstract syntax; callers render them
    with {!Zql.Ast.to_zql} so the concrete lexer/parser sit on the fuzz
    path. *)

val lookup_query : Oodb_util.Prng.t -> Schemagen.t -> Zql.Ast.query

val rich_query : Oodb_util.Prng.t -> Schemagen.t -> Zql.Ast.query

val setop_query : Oodb_util.Prng.t -> Schemagen.t -> Zql.Ast.query

val random_query : Oodb_util.Prng.t -> Schemagen.t -> Zql.Ast.query

val join_chain_query : width:int -> Oodb_util.Prng.t -> Schemagen.t -> Zql.Ast.query
(** A [width]-way chain of reference-equality joins rooted at the anchor
    class, zigzagging between outgoing and incoming references (classes
    may repeat). The join-order search space grows with [width] alone —
    the scaling knob for wide-join benchmarks and search-scaling tests. *)

val n_random : int

val generate :
  ?join_width:int ->
  Oodb_util.Prng.t ->
  Oodb_catalog.Catalog.t ->
  Schemagen.t ->
  (string * Zql.Ast.query) list
(** The per-scenario query set, each validated against the catalog by
    running the real simplifier (rejected draws are retried from the
    same stream, so output is still a pure function of the generator
    state). [join_width] (>= 2) appends one extra [wide] query built by
    {!join_chain_query}; it is appended after the fixed mix, so the
    default set for a given generator state is unchanged when the knob
    is off.

    @raise Failure if a query shape repeatedly fails to simplify —
    a generator bug, not an input condition. *)
