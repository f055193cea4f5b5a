(** Predicate and scalar evaluation over tuples.

    Operators compile each operand and predicate once, when they are
    built: a compiled operand resolves its binding's slot position once
    per input schema ({!Env.index}) and reads its field through a
    {!Oodb_storage.Store.hint}, so the per-row work is an array read and
    a field probe. *)

module Value = Oodb_storage.Value
module Pred = Oodb_algebra.Pred

val compile_operand : Pred.operand -> Env.t -> Value.t
(** [Field] reads a materialized object's attribute ([Null] if missing);
    [Self] yields the binding's OID as a [Ref].
    @raise Env.Not_materialized / Env.Unbound on plan bugs. *)

val compile_atom : Pred.atom -> Env.t -> bool
(** Three-valued-logic shortcut: comparisons involving [Null] are false
    (except [Null == Null] and [Null != x]). *)

val compile_pred : Pred.t -> Env.t -> bool
(** Conjunction, evaluated left to right. *)
