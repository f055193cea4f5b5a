(** Static linter for physical plans.

    [Logical.well_formed] checks the optimizer's {e input}; this pass
    checks its {e output}. It walks a physical plan bottom-up tracking
    the binding scope and the presence-in-memory vector exactly as the
    executor maintains them (children are trimmed to their [delivered]
    in-memory set before the parent consumes them), and reports every
    way the plan could dereference garbage or read a binding that is not
    materialized — the runtime failures the paper's property vector
    exists to prevent (§5).

    The checks per operator mirror the executor's requirements:
    predicate operands in scope, [Field] operands on in-memory bindings,
    merge-join inputs carrying the key order, catalog-backed names
    (collections, indexes, attributes) resolving, assembly/pointer-join
    sources holding single-valued references, and each node's
    [delivered] properties actually achievable by what it computes. *)

type violation =
  | Arity_mismatch of { alg : string; expected : int; got : int }
  | Unknown_collection of string  (** named collection absent from the catalog *)
  | Not_scannable of string  (** scan of a [Hidden] collection *)
  | Unknown_index of { index : string; coll : string }
      (** index-scan naming an index the catalog does not list on that
          collection *)
  | Out_of_scope of { binding : string; context : string }
      (** operand refers to a binding no input introduces *)
  | Not_in_memory of { binding : string; context : string }
      (** [Field] access on a binding present only as a reference — the
          executor would raise [Not_materialized] *)
  | Not_a_reference of { binding : string; field : string option; context : string }
      (** assembly / pointer-join path through a non-reference attribute *)
  | Not_set_valued of { binding : string; field : string }
      (** unnest of an attribute that is not set-valued *)
  | Unknown_attribute of { cls : string; field : string; context : string }
  | Duplicate_binding of string
      (** operator (re)introduces a binding already in scope *)
  | Missing_sort_order of {
      side : string;
      expected : Physprop.order option;
      got : Physprop.order option;
    }  (** merge-join input does not arrive in the key order *)
  | Undelivered_memory of { binding : string; alg : string }
      (** node's [delivered.in_memory] claims a binding it cannot have
          materialized *)
  | Undelivered_order of { alg : string }
      (** node's [delivered.order] claims an order its algorithm does not
          produce *)
  | Bad_window of int  (** assembly window < 1 *)
  | Unsatisfied_required of { delivered : Physprop.t; required : Physprop.t }
      (** root plan does not satisfy the stated optimization goal *)

val pp_violation : Format.formatter -> violation -> unit

val plan :
  ?required:Physprop.t ->
  Oodb_catalog.Catalog.t ->
  Model.Engine.plan ->
  (unit, violation list) result
(** Lint a physical plan against a catalog. All violations are collected
    (the walk continues past errors on a best-effort state), ordered
    bottom-up, left to right. [required] (default {!Physprop.empty})
    additionally checks the root's delivered properties against the
    optimization goal. *)

val pp_violations : Format.formatter -> violation list -> unit
