module Value = Oodb_storage.Value
module Store = Oodb_storage.Store
module Btree_index = Oodb_storage.Btree_index
module Catalog = Oodb_catalog.Catalog
module Schema = Oodb_catalog.Schema

type report = {
  attributes_updated : int;
  set_attributes_updated : int;
  indexes_updated : int;
}

let distinct_values db ~coll ~field =
  let store = Db.store db in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun oid ->
      match Store.field store oid field with
      | v -> Hashtbl.replace seen v ()
      | exception Not_found -> ())
    (Store.oids store ~coll);
  Hashtbl.length seen

let average_set_size db ~coll ~field =
  let store = Db.store db in
  let oids = Store.oids store ~coll in
  match oids with
  | [] -> 0.0
  | _ ->
    let total =
      List.fold_left
        (fun acc oid ->
          match Store.field store oid field with
          | v -> acc + List.length (Value.set_elements v)
          | exception Not_found -> acc)
        0 oids
    in
    float_of_int total /. float_of_int (List.length oids)

let refresh db =
  let cat = Db.catalog db in
  let schema = Catalog.schema cat in
  let attrs = ref 0 and sets = ref 0 and ixs = ref 0 in
  List.iter
    (fun (co : Catalog.collection) ->
      match Schema.find_class schema co.Catalog.co_class with
      | None -> ()
      | Some cd ->
        List.iter
          (fun (a : Schema.attr) ->
            match a.Schema.a_ty with
            | Schema.Bool | Schema.Int | Schema.Float | Schema.String | Schema.Date ->
              (* only refresh attributes that already carry a statistic:
                 attributes the paper's catalog deliberately leaves
                 unstatisticized (Task.time, Employee.name) stay that way
                 so index-vs-default selectivity behaviour is preserved *)
              if Catalog.distinct cat ~cls:co.Catalog.co_class ~field:a.Schema.a_name <> None
              then begin
                Catalog.set_distinct cat ~cls:co.Catalog.co_class ~field:a.Schema.a_name
                  (distinct_values db ~coll:co.Catalog.co_name ~field:a.Schema.a_name);
                incr attrs
              end
            | Schema.Set_of _ ->
              Catalog.set_avg_set_size cat ~cls:co.Catalog.co_class ~field:a.Schema.a_name
                (average_set_size db ~coll:co.Catalog.co_name ~field:a.Schema.a_name);
              incr sets
            | Schema.Ref _ -> ())
          cd.Schema.cl_attrs)
    (Catalog.collections cat);
  (* re-read index statistics from the physical indexes *)
  let updated_defs =
    List.filter_map
      (fun (ix : Catalog.index_def) ->
        match Db.find_index db ix.Catalog.ix_name with
        | Some physical ->
          Some { ix with Catalog.ix_distinct = Btree_index.distinct_keys physical }
        | None -> None)
      (Catalog.indexes cat)
  in
  List.iter
    (fun (ix : Catalog.index_def) ->
      Catalog.drop_index cat ix.Catalog.ix_name;
      Catalog.add_index cat ix;
      incr ixs)
    updated_defs;
  { attributes_updated = !attrs; set_attributes_updated = !sets; indexes_updated = !ixs }

let pp_report ppf r =
  Format.fprintf ppf "refreshed %d attribute, %d set-size and %d index statistics"
    r.attributes_updated r.set_attributes_updated r.indexes_updated
