(** A database: catalog metadata plus the physical store and indexes. *)

module Store = Oodb_storage.Store
module Btree_index = Oodb_storage.Btree_index
module Catalog = Oodb_catalog.Catalog

type t

val create : Catalog.t -> Store.t -> t

val catalog : t -> Catalog.t

val store : t -> Store.t

val add_index : t -> Btree_index.t -> unit
(** Register a physical index under its name.
    @raise Invalid_argument on duplicates. *)

val find_index : t -> string -> Btree_index.t option
