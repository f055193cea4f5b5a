(** Simulated object store.

    Objects belong to a named {e collection} (a user-defined set such as
    [Cities], or a type extent such as [extent(Job)]); each collection is
    a disk segment in which objects are densely packed in insertion order,
    matching the paper's assumption that "objects in user-defined sets and
    type extents are densely packed on pages".

    Object field data is held in memory column-wise. The objects of one
    collection inserted with one list of field names (a {e layout}) form
    a group with one column per field: [Int], [Date], [Bool] and [Ref]
    values in an [int array], [Float]s in a [float array], sets of
    references as offsets into an OID array, and strings as the stored
    [Value.Str] values, handed out shared. A column that receives a
    value of another kind keeps [Value.t] cells from then on. An OID
    table in int arrays maps each object to its group, its row and its
    first page; an object is nothing but its OID.

    Every access path that a real system would pay I/O for ([fetch],
    [scan], [scan_batch]) charges the simulated {!Disk} through the
    {!Buffer_pool}, so execution-engine measurements reflect the paper's
    storage model. Reads of field values charge nothing: the engine
    reads a field only of an object it has fetched. *)

type t

val create : ?page_size:int -> ?buffer_pages:int -> unit -> t
(** Defaults: 4096-byte pages, 2048 buffered pages (8 MB). *)

val disk : t -> Disk.t

val buffer : t -> Buffer_pool.t

val declare_collection : t -> name:string -> cls:string -> obj_bytes:int -> unit
(** Declare a collection before inserting into it.
    @raise Invalid_argument on duplicate names or non-positive sizes. *)

val collections : t -> string list

val insert : t -> coll:string -> (string * Value.t) list -> Value.oid
(** Append an object; allocates disk pages as needed. No I/O is charged
    (bulk loading is not part of any measured experiment). OIDs are
    dense: 1, 2, 3, … in insertion order across all collections. *)

val set_field : t -> Value.oid -> string -> Value.t -> unit
(** Update the first field of that name in place (used to wire cyclic
    references during data generation); other objects of the layout are
    untouched. Charges nothing.
    @raise Invalid_argument if the object has no such field. *)

val fetch : t -> Value.oid -> unit
(** Bring an object into memory, charging buffered page reads for every
    page it spans. @raise Not_found for dangling OIDs. *)

val field : t -> Value.oid -> string -> Value.t
(** The value of the object's first field of that name, free of charge.
    Int-coded values are boxed on demand; strings are the stored values.
    @raise Not_found for dangling OIDs and for a field the object does
    not have. *)

val field_names : t -> Value.oid -> string list
(** The object's field names in insertion order (its layout).
    @raise Not_found for dangling OIDs. *)

(** {1 Column reads}

    What compiled operands read: one field name, whose column is
    resolved once per layout. Objects of one collection share a layout,
    so a scan resolves each field once. A field missing from an
    object's layout reads as [Null]. Each read raises [Not_found] for a
    dangling OID. *)

type reader

val reader : t -> string -> reader

val get : reader -> Value.oid -> Value.t
(** The field's value, as {!field} gives it ([Null] when missing). *)

val null : int
(** What {!compare_cell} and {!ref_cell} answer for a [Null] field. *)

val compare_cell : reader -> Value.oid -> Value.t -> int
(** [Value.compare] of the field's value with a constant, or {!null}
    when the field is [Null] or missing. An [Int], [Date], [Bool], [Ref]
    or [Float] field compared with a constant of its kind (or an [Int]
    with a [Float]) is compared unboxed, and so is every stored value
    (strings, and columns that hold several kinds). *)

val ref_cell : reader -> Value.oid -> Value.oid
(** The OID the field references; {!null} when it holds [Null] or a
    non-reference value. Allocates nothing for an int column. *)

val iter_set : reader -> Value.oid -> (Value.oid -> unit) -> unit
(** Apply the function to every reference in the field's set, in order;
    [Null] is the empty set, and non-reference elements are skipped.
    @raise Invalid_argument when the field holds a non-set value. *)

(** {1 Scans and the simulated layout} *)

val scan : t -> coll:string -> (Value.oid -> unit) -> unit
(** Sequential scan in physical order, charging each page once. *)

val scan_batch : t -> coll:string -> pos:int -> n:int -> Value.oid array
(** The batch read path of the vectorized engine: the objects in slots
    [\[pos, pos+n)] (clipped to the collection) in physical order, with
    one buffer-pool interaction per page the range spans rather than
    one per object. Empty when [pos] is past the end; with [n = 1] the
    charges are exactly {!fetch}'s.
    @raise Invalid_argument on negative [pos] or [n < 1]. *)

val oids : t -> coll:string -> Value.oid list
(** Members in physical order, free of charge. *)

val cardinality : t -> coll:string -> int

val segment : t -> coll:string -> Disk.segment

val obj_bytes : t -> Value.oid -> int
(** The declared object size of the object's collection, free of charge
    (read through the OID table). @raise Not_found for dangling OIDs. *)

val location : t -> Value.oid -> int
(** Absolute platter address ({!Disk.abs_page}) of the object's first
    page, free of charge — the sort key for elevator scheduling in the
    assembly operator. @raise Not_found for dangling OIDs. *)

val class_of : t -> Value.oid -> string
(** Class of an object, free of charge (OID tables are resident). *)
