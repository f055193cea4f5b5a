(** The shared fuzz population over the shipped (Table 1) workload
    schema: random well-formed logical expressions built by a seeded
    walk over the reference graph. One generator feeds the plan-cache
    fingerprint tests, the typed-algebra property tests and the
    vectorized-executor differential tests, so they all exercise the
    same query distribution.

    For fuzzing over {e generated} schemas — where the schema itself is
    random — see {!Scenario} and {!Querygen}, which go through the ZQL
    front end instead of building algebra directly. *)

val roots : (string * string) array
(** Scannable [(collection, class)] roots. *)

val gen_expr : seed:int -> root_name:string -> Oodb_algebra.Logical.t
(** Deterministic: equal seeds yield equal expressions; the same seed
    with a different [root_name] yields an alpha-renamed variant (every
    derived binding name flows from the root), which is what the
    fingerprint tests rely on. *)

val n_fuzz : int
(** Default population size used by the in-tree fuzz suites. *)
