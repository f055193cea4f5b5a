module Store = Oodb_storage.Store
module Btree_index = Oodb_storage.Btree_index
module Catalog = Oodb_catalog.Catalog

type t = {
  catalog : Catalog.t;
  store : Store.t;
  indexes : (string, Btree_index.t) Hashtbl.t;
}

let create catalog store = { catalog; store; indexes = Hashtbl.create 8 }

let catalog t = t.catalog

let store t = t.store

let add_index t ix =
  let name = Btree_index.name ix in
  if Hashtbl.mem t.indexes name then
    invalid_arg (Printf.sprintf "Db.add_index: duplicate index %s" name);
  Hashtbl.add t.indexes name ix

let find_index t name = Hashtbl.find_opt t.indexes name
