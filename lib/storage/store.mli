(** Simulated object store.

    Objects belong to a named {e collection} (a user-defined set such as
    [Cities], or a type extent such as [extent(Job)]); each collection is
    a disk segment in which objects are densely packed in insertion order,
    matching the paper's assumption that "objects in user-defined sets and
    type extents are densely packed on pages".

    Object field data is held in memory for simplicity, but every access
    path that a real system would pay I/O for ([fetch], [scan]) charges
    the simulated {!Disk} through the {!Buffer_pool}, so execution-engine
    measurements reflect the paper's storage model. [peek] reads without
    charging and is meant for catalogs, statistics, data generation, and
    tests. *)

type t

type obj = {
  oid : Value.oid;
  cls : string;  (** class (type) name *)
  coll : string; (** owning collection *)
  fields : (string * Value.t) array;
}

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
(** Update a field in place (used to wire cyclic references during data
    generation). Charges nothing. *)

val fetch : t -> Value.oid -> obj
(** Dereference an OID, charging buffered page reads for every page the
    object spans. @raise Not_found for dangling OIDs. *)

val peek : t -> Value.oid -> obj
(** Like [fetch] but free: no simulated I/O. *)

val field : obj -> string -> Value.t
(** @raise Not_found if the object has no such field. *)

type hint
(** A remembered field position: where the last read through this hint
    found its field. *)

val hint : unit -> hint

val field_hinted : hint -> obj -> string -> Value.t
(** Like {!field}, but tries the hint's position first and falls back to
    the linear search (updating the hint) when the field is not there,
    so any field layout reads correctly. A compiled operand keeps one
    hint per field name: objects of one class share a layout, so a scan
    reads each field in one probe.
    @raise Not_found if the object has no such field. *)

val scan : t -> coll:string -> (obj -> unit) -> unit
(** Sequential scan in physical order, charging each page once. *)

val scan_batch : t -> coll:string -> pos:int -> n:int -> obj array
(** The batch read path of the vectorized engine: objects in slots
    [\[pos, pos+n)] (clipped to the collection) in physical order, with
    one buffer-pool interaction per page the range spans rather than
    one per object. Empty when [pos] is past the end; with [n = 1] the
    charges are exactly {!fetch}'s.
    @raise Invalid_argument on negative [pos] or [n < 1]. *)

val fetch_batch : t -> Value.oid list -> obj list
(** Dereference a batch of OIDs in one storage call, charging per
    object exactly what {!fetch} charges. @raise Not_found on dangling
    OIDs. *)

val oids : t -> coll:string -> Value.oid list
(** Members in physical order, free of charge. *)

val cardinality : t -> coll:string -> int

val segment : t -> coll:string -> Disk.segment

val obj_bytes : t -> Value.oid -> int
(** The declared object size of the object's collection, free of charge
    (read from the OID-indexed place table). @raise Not_found for
    dangling OIDs. *)

val location : t -> Value.oid -> Disk.segment * int
(** First (segment, page) of the object — the sort key for elevator
    scheduling in the assembly operator. *)

val class_of : t -> Value.oid -> string
(** Class of an object, free of charge (OID tables are resident). *)
