(** Derivation of logical properties, bottom-up over the logical algebra.

    The derivation encodes the paper's statistical model: cardinality
    information is kept only with sets and extents, so a [Mat] whose
    target class has no scannable collection (the paper's [Plant])
    produces a binding with no class-cardinality bound — which is what
    later makes its assembly cost proportional to the input stream. *)

val derive :
  Config.t ->
  Oodb_catalog.Catalog.t ->
  Oodb_algebra.Logical.op ->
  Lprops.t list ->
  Lprops.t
(** [derive cfg cat op inputs] — properties of [op] applied to inputs
    with the given properties.
    @raise Invalid_argument on arity mismatch or unresolvable schema
    references (expressions are validated by {!Oodb_algebra.Logical.well_formed}
    before optimization, so this indicates a bug). *)

val derive_expr : Config.t -> Oodb_catalog.Catalog.t -> Oodb_algebra.Logical.t -> Lprops.t
(** Whole-tree convenience wrapper. *)
