(** Canonical plan-cache fingerprints.

    A fingerprint identifies what the optimizer's output depends on
    apart from the catalog and the feedback tables: the logical
    expression, the required physical properties, and every other
    option that can alter plan choice (cost-model configuration,
    disabled rules, pruning, normalization). The catalog statistics a
    plan read, and the feedback tables it was planned under, are
    checked by the cache entry instead (see {!Plancache}).

    The expression enters the fingerprint in a {e canonical} form:
    binding scopes are alpha-renamed to ["$0", "$1", ...] in
    introduction order, predicate atoms are oriented and sorted, and
    default-derived projection names follow the renaming — so
    syntactically distinct but equivalent ZQL spellings (different
    binding names, reordered conjuncts) hit the same cache entry.
    Explicit [as]-aliases in projections are preserved verbatim: they
    name output columns, which are part of the result. *)

module Logical = Oodb_algebra.Logical

type t = private string
(** The canonical key string itself: the expression's canonical form,
    the required properties and the plan-relevant options, tagged and
    escaped so that distinct inputs give distinct strings. The plan
    cache keys on it, so two queries share an entry only when their
    keys are equal byte for byte. *)

val make :
  options:Open_oodb.Options.t ->
  required:Open_oodb.Physprop.t ->
  Logical.t ->
  t
(** Renders the options part once per physical [Options.t] value: a
    call with the options value of the previous call reuses its
    rendering. *)

val equal : t -> t -> bool

(** {1 Canonicalization internals} (exposed for tests and diagnostics) *)

val canonical : Logical.t -> Logical.t
(** The alpha-renamed, predicate-sorted form the key renders. Two
    expressions have equal fingerprints under equal options and
    required properties iff their canonical forms are equal. *)

val key :
  options:Open_oodb.Options.t ->
  required:Open_oodb.Physprop.t ->
  Logical.t ->
  string
(** {!make}, as a plain string. *)
