(** Simulated object store.

    Objects belong to a named {e collection} (a user-defined set such as
    [Cities], or a type extent such as [extent(Job)]); each collection is
    a disk segment in which objects are densely packed in insertion order,
    matching the paper's assumption that "objects in user-defined sets and
    type extents are densely packed on pages".

    Object field data is held in memory for simplicity, class-shaped: a
    value array beside a field-name array that every object of one layout
    in a collection shares. Every access
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
  names : string array;
      (** field names in insertion order: the object's {e layout}.
          Objects of one collection inserted with the same field names
          in the same order share one array, so a layout is identified
          by physical equality. Shared and never mutated. *)
  values : Value.t array;  (** [values.(i)] is the field named [names.(i)] *)
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
    dense: 1, 2, 3, … in insertion order across all collections. The
    field names are interned per collection: an object whose names
    match, in order, those of an earlier object of the collection
    shares that object's [names] array. *)

val set_field : t -> Value.oid -> string -> Value.t -> unit
(** Update the first field of that name in place (used to wire cyclic
    references during data generation); other objects of the layout are
    untouched. Charges nothing.
    @raise Invalid_argument if the object has no such field. *)

val fetch : t -> Value.oid -> obj
(** Dereference an OID, charging buffered page reads for every page the
    object spans. @raise Not_found for dangling OIDs. *)

val peek : t -> Value.oid -> obj
(** Like [fetch] but free: no simulated I/O. *)

val field : obj -> string -> Value.t
(** The value of the first field of that name.
    @raise Not_found if the object has no such field. *)

type hint
(** A read of one field name that remembers the last layout it saw and
    the field's position in it. *)

val hint : string -> hint

val field_hinted : hint -> obj -> Value.t
(** [field_hinted (hint name) o] is [field o name]. When [o]'s layout is
    (physically) the one the previous read saw, the read is one
    comparison and one array read; otherwise the name is searched in the
    new layout, which the hint then remembers. A compiled operand keeps
    one hint per field it reads: objects of one collection share a
    layout, so a scan searches each field name once.
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

val oids : t -> coll:string -> Value.oid list
(** Members in physical order, free of charge. *)

val cardinality : t -> coll:string -> int

val segment : t -> coll:string -> Disk.segment

val obj_bytes : t -> Value.oid -> int
(** The declared object size of the object's collection, free of charge
    (read from the OID-indexed place table). @raise Not_found for
    dangling OIDs. *)

val location : t -> Value.oid -> int
(** Absolute platter address ({!Disk.abs_page}) of the object's first
    page, free of charge — the sort key for elevator scheduling in the
    assembly operator. @raise Not_found for dangling OIDs. *)

val class_of : t -> Value.oid -> string
(** Class of an object, free of charge (OID tables are resident). *)
