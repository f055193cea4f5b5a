module Prng = Oodb_util.Prng
module Value = Oodb_storage.Value
module Store = Oodb_storage.Store
module Catalog = Oodb_catalog.Catalog
module Db = Oodb_exec.Db
module Datagen = Oodb_workloads.Datagen
module Json = Oodb_util.Json
module Ast = Zql.Ast
module G = Schemagen

type query_case = { qc_name : string; qc_ast : Ast.query; qc_zql : string }

type t = {
  sc_seed : int;
  sc_index : int;
  sc_schema : G.t;
  sc_queries : query_case list;
}

(* Per-scenario streams are derived from (seed, index), never from a
   shared stream, so scenario [i] of [--scenarios 100] is bit-identical
   to scenario [i] of [--scenarios 10]: prefix stability. *)
let rng_for ~seed ~index = Prng.create ((seed * 1_000_003) + index)

(* The data builder draws from its own stream (salted), so the stored
   objects do not depend on how many random draws query generation
   happened to make. *)
let data_rng_for ~seed ~index = Prng.create (((seed * 1_000_003) + index) lxor 0x0da7a)

let base_catalog spec =
  let cat = Catalog.create (G.to_schema spec) in
  List.iter
    (fun (c : G.cls) ->
      Catalog.add_collection cat
        { Catalog.co_name = G.coll_of c.G.c_name;
          co_class = c.G.c_name;
          co_kind = Catalog.Extent;
          co_card = c.G.c_card;
          co_obj_bytes = c.G.c_bytes })
    spec.G.g_classes;
  cat

let generate ?join_width ~seed ~index () =
  let rng = rng_for ~seed ~index in
  let schema = G.generate rng in
  let cat = base_catalog schema in
  let queries =
    List.map
      (fun (name, ast) -> { qc_name = name; qc_ast = ast; qc_zql = Ast.to_zql ast })
      (Querygen.generate ?join_width rng cat schema)
  in
  { sc_seed = seed; sc_index = index; sc_schema = schema; sc_queries = queries }

let build_db ?(corrupt = false) t =
  let spec = t.sc_schema in
  let rng = data_rng_for ~seed:t.sc_seed ~index:t.sc_index in
  let store = Store.create ~buffer_pages:256 () in
  List.iter
    (fun (c : G.cls) ->
      Store.declare_collection store ~name:(G.coll_of c.G.c_name) ~cls:c.G.c_name
        ~obj_bytes:c.G.c_bytes)
    spec.G.g_classes;
  (* Classes are inserted in declaration order; references point only at
     earlier classes, so every Ref resolves at insertion time. Inverse
     sets are left empty here and wired below, once their source class's
     references exist. *)
  let oids : (string, Value.oid array) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (c : G.cls) ->
      let coll = G.coll_of c.G.c_name in
      let arr =
        Array.init c.G.c_card (fun _ ->
            let scalars = List.map (fun (f, k) -> (f, G.value_of_scalar rng k)) c.G.c_scalars in
            let refs =
              List.map
                (fun (f, target) ->
                  let tgt = Hashtbl.find oids (G.coll_of target) in
                  (f, Value.Ref tgt.(Prng.int rng (Array.length tgt))))
                c.G.c_refs
            in
            let sets =
              List.map
                (fun (f, elem, src) ->
                  match src with
                  | G.S_inverse _ -> (f, Value.Set [])
                  | G.S_random n ->
                    let tgt = Hashtbl.find oids (G.coll_of elem) in
                    ( f,
                      Value.Set
                        (List.init (Prng.int rng (n + 1)) (fun _ ->
                             Value.Ref tgt.(Prng.int rng (Array.length tgt)))) ))
                c.G.c_sets
            in
            Store.insert store ~coll (scalars @ refs @ sets))
      in
      Hashtbl.add oids coll arr)
    spec.G.g_classes;
  (* wire inverse relationships: rev_X_f on a target collects exactly
     the X objects whose f references it *)
  List.iter
    (fun (c : G.cls) ->
      List.iter
        (fun (f, _elem, src) ->
          match src with
          | G.S_random _ -> ()
          | G.S_inverse { src_cls; ref_field } ->
            let members : (Value.oid, Value.oid list) Hashtbl.t = Hashtbl.create 64 in
            Array.iter
              (fun soid ->
                match Store.field store soid ref_field with
                | Value.Ref tgt ->
                  let prev = try Hashtbl.find members tgt with Not_found -> [] in
                  Hashtbl.replace members tgt (soid :: prev)
                | _ -> ())
              (Hashtbl.find oids (G.coll_of src_cls));
            Array.iter
              (fun toid ->
                let srcs = try List.rev (Hashtbl.find members toid) with Not_found -> [] in
                Store.set_field store toid f (Value.Set (List.map (fun o -> Value.Ref o) srcs)))
              (Hashtbl.find oids (G.coll_of c.G.c_name)))
        c.G.c_sets)
    spec.G.g_classes;
  let cat = base_catalog spec in
  let db = Db.create cat store in
  List.iter
    (fun (c : G.cls) ->
      let coll = G.coll_of c.G.c_name in
      List.iter
        (fun f ->
          Catalog.set_distinct cat ~cls:c.G.c_name ~field:f
            (Datagen.measured_distinct store ~coll ~field:f))
        (List.map fst c.G.c_scalars @ List.map fst c.G.c_refs);
      List.iter
        (fun (f, _, _) ->
          Catalog.set_avg_set_size cat ~cls:c.G.c_name ~field:f
            (Datagen.measured_avg_set_size store ~coll ~field:f))
        c.G.c_sets)
    spec.G.g_classes;
  List.iter
    (function
      | G.I_field ix ->
        Datagen.add_field_index store db cat ~name:ix.ix_name ~coll:(G.coll_of ix.ix_cls)
          ~field:ix.ix_field
      | G.I_path ix ->
        Datagen.add_path_index store db cat ~name:ix.ix_name ~coll:(G.coll_of ix.ix_cls)
          ~ref_field:ix.ix_ref ~field:ix.ix_field)
    spec.G.g_indexes;
  if corrupt then begin
    (* The negative control: claim the anchor's near-unique name field
       has only 2 distinct values (the generate_skewed pattern). The
       optimizer then prices the name lookup at selectivity 1/2 and
       keeps the file scan; the index plan stays in the memo, so
       effectiveness scoring observes regret > 1. *)
    let a = G.anchor_cls spec in
    Catalog.set_distinct cat ~cls:a.G.c_name ~field:"name" 2;
    match Catalog.find_index cat ~coll:(G.coll_of a.G.c_name) ~path:[ "name" ] with
    | Some ix ->
      Catalog.drop_index cat ix.Catalog.ix_name;
      Catalog.add_index cat { ix with Catalog.ix_distinct = 2 }
    | None -> ()
  end;
  db

let to_json t =
  Json.Obj
    [ ("seed", Json.Int t.sc_seed);
      ("index", Json.Int t.sc_index);
      ("schema", G.to_json t.sc_schema);
      ( "queries",
        Json.List
          (List.map
             (fun q ->
               Json.Obj [ ("name", Json.String q.qc_name); ("zql", Json.String q.qc_zql) ])
             t.sc_queries) ) ]

(* Every object of the collections, in order, as [field=value;] text. *)
let dump_objects buf store colls =
  List.iter
    (fun coll ->
      List.iter
        (fun oid ->
          List.iter
            (fun f ->
              Buffer.add_string buf
                (Printf.sprintf "%s=%s;" f (Value.to_string (Store.field store oid f))))
            (Store.field_names store oid))
        (Store.oids store ~coll))
    colls

let objects_digest store colls =
  let buf = Buffer.create 4096 in
  dump_objects buf store colls;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let digest ?db t =
  let db = match db with Some db -> db | None -> build_db t in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Json.to_string (to_json t));
  Buffer.add_string buf (Digest.to_hex (Catalog.digest (Db.catalog db)));
  dump_objects buf (Db.store db)
    (List.map (fun (c : G.cls) -> G.coll_of c.G.c_name) t.sc_schema.G.g_classes);
  Digest.to_hex (Digest.string (Buffer.contents buf))
