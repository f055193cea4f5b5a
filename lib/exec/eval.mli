(** Predicate and scalar evaluation over tuples.

    Operators compile each operand and predicate once, when they are
    built: a compiled operand resolves its binding's slot position once
    per input schema ({!Env.index}) and reads its field through a
    {!Oodb_storage.Store.reader}, which resolves the column once per
    layout. A field compared with a constant that its column codes as
    an int ([Int], [Date], [Bool], [Ref]) is compared unboxed; a
    [Value.t] is built only where an operand's value is asked for. *)

module Value = Oodb_storage.Value
module Store = Oodb_storage.Store
module Pred = Oodb_algebra.Pred

val compile_operand : Store.t -> Pred.operand -> Env.t -> Value.t
(** [Field] reads an in-memory object's attribute ([Null] if missing);
    [Self] yields the binding's OID as a [Ref].
    @raise Env.Not_materialized / Env.Unbound on plan bugs. *)

val compile_atom : Store.t -> Pred.atom -> Env.t -> bool
(** Three-valued-logic shortcut: comparisons involving [Null] are false
    (except [Null == Null] and [Null != x]). *)

val compile_pred : Store.t -> Pred.t -> Env.t -> bool
(** Conjunction, evaluated left to right. *)

val compile_fetched_pred : Store.t -> string -> Pred.t -> Value.oid -> bool
(** The conjunction over one fetched object bound to the named binding,
    before any tuple holds it: what an index scan tests its residual
    with. An operand naming another binding raises [Env.Unbound]. *)
