(** Tuples flowing between execution operators.

    A tuple is a {e schema} — its binding names, in binding order — and
    one slot per binding. A slot is one int: the bound object's OID and
    a presence bit, set when the object is in memory. The bit is the
    runtime counterpart of the optimizer's presence-in-memory property:
    reading a field of an object that is not in memory is a plan bug,
    and the executor raises {!Not_materialized} to surface it (the
    property machinery makes this unreachable for plans the optimizer
    emits).

    Tuples are positional. An operator builds each output schema once
    and shares that one array with every tuple it emits; consumers
    resolve a binding to its slot position once per input schema, keyed
    on the schema's physical identity ({!index}, {!memo}), instead of
    searching names on every row. Schemas are never mutated. Inputs
    that order their bindings differently (the two branches of a set
    operation) simply present two schemas. *)

module Value = Oodb_storage.Value

exception Not_materialized of string

exception Unbound of string

type schema = string array
(** Binding names in binding order. Shared, never mutated. *)

type slot = private int
(** An OID and its presence bit. *)

type t = private { schema : schema; slots : slot array }

val make : schema -> slot array -> t
(** The tuple owns both arrays; the schema may be shared with other
    tuples, the slot array may not. *)

val empty : t

val in_memory : Value.oid -> slot
(** The slot of an object in memory. *)

val reference : Value.oid -> slot
(** The slot of an object known by its OID only. *)

val slot_oid : slot -> Value.oid

val is_in_memory : slot -> bool

val demote : t -> int array -> t
(** Clear the presence bits at the given positions; the tuple itself
    (physically) when none of them is set. *)

val replace : t -> int -> slot -> t
(** A copy with the slot at one position replaced. *)

val extend : schema -> t -> slot -> t
(** [extend schema t s] appends [s]; [schema] must be [t]'s schema plus
    the new binding — build it once with {!extend_schema}. *)

val concat : schema -> t -> t -> t
(** Both tuples' slots, left first, under the concatenated [schema]. *)

val select : schema -> int array -> t -> t
(** The slots at the given positions, in order, under [schema]. *)

val extend_schema : schema -> string -> schema

val position : schema -> string -> int
(** First position of a binding; [-1] when absent. *)

val positions : (string -> bool) -> schema -> int array
(** Positions of the bindings that satisfy the predicate, in order. *)

(** {1 Per-schema resolution} *)

type 'a memo
(** A function of the schema, computed once per distinct schema
    (physical identity) and cached. Each operator owns its memos; there
    is no shared state. *)

val memo : (schema -> 'a) -> 'a memo

val get : 'a memo -> schema -> 'a

type index
(** A binding name whose slot position is resolved once per schema. *)

val index : string -> index

val slot_at : index -> t -> slot
(** @raise Unbound *)

val oid_at : index -> t -> Value.oid
(** @raise Unbound *)

val obj_at : index -> t -> Value.oid
(** The OID of the object bound there, which must be in memory.
    @raise Unbound / Not_materialized *)

(** {1 By binding name}

    Name-based accessors: each call searches the schema. *)

val bind_obj : t -> string -> Value.oid -> t
(** Bind an object in memory. *)

val bind_ref : t -> string -> Value.oid -> t
(** Bind an OID only. *)

val oid : t -> string -> Value.oid
(** @raise Unbound *)

val obj : t -> string -> Value.oid
(** The OID of the bound object, which must be in memory.
    @raise Unbound / Not_materialized *)

val bindings : t -> string list
(** In binding order. *)

val narrow : t -> string list -> t
(** Keep only the listed bindings, in binding order. *)
