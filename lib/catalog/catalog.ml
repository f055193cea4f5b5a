type coll_kind = Set | Extent | Hidden

type collection = {
  co_name : string;
  co_class : string;
  co_kind : coll_kind;
  co_card : int;
  co_obj_bytes : int;
}

type index_def = {
  ix_name : string;
  ix_coll : string;
  ix_path : string list;
  ix_distinct : int;
}

type t = {
  schema : Schema.t;
  colls : (string, collection) Hashtbl.t;
  mutable coll_order : collection list; (* reverse insertion order *)
  mutable indexes : index_def list;
  distinct_tbl : (string * string, int) Hashtbl.t;
  set_size_tbl : (string * string, float) Hashtbl.t;
  mutable epoch : int;
  mutable digest_at : (int * Digest.t) option;
      (* the digest and the epoch it was computed at: every mutation
         bumps the epoch and the schema and records are immutable, so a
         digest stays exact until the epoch moves *)
  mutable answers_at : int;
      (* epoch the three answer caches below hold for; -1 = none. The
         estimator asks for a class's scannable collections and
         cardinality once per identity atom it prices. *)
  mutable collections_at : collection list;
  scannables_at : (string, collection list) Hashtbl.t;
  cardinality_at : (string, int option) Hashtbl.t;
}

let create schema =
  { schema;
    colls = Hashtbl.create 16;
    coll_order = [];
    indexes = [];
    distinct_tbl = Hashtbl.create 32;
    set_size_tbl = Hashtbl.create 8;
    epoch = 0;
    digest_at = None;
    answers_at = -1;
    collections_at = [];
    scannables_at = Hashtbl.create 16;
    cardinality_at = Hashtbl.create 16 }

let schema t = t.schema

let epoch t = t.epoch

let bump_epoch t = t.epoch <- t.epoch + 1

let add_collection t co =
  if Hashtbl.mem t.colls co.co_name then
    invalid_arg (Printf.sprintf "Catalog.add_collection: duplicate %s" co.co_name);
  if Schema.find_class t.schema co.co_class = None then
    invalid_arg (Printf.sprintf "Catalog.add_collection: unknown class %s" co.co_class);
  Hashtbl.add t.colls co.co_name co;
  t.coll_order <- co :: t.coll_order;
  bump_epoch t

(* Empty the answer caches if the epoch moved since they were filled. *)
let refresh_answers t =
  if t.answers_at <> t.epoch then begin
    t.collections_at <- List.rev t.coll_order;
    Hashtbl.reset t.scannables_at;
    Hashtbl.reset t.cardinality_at;
    t.answers_at <- t.epoch
  end

let collections t =
  refresh_answers t;
  t.collections_at

let find_collection t name = Hashtbl.find_opt t.colls name

let cached t tbl key compute =
  refresh_answers t;
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = compute () in
    Hashtbl.add tbl key v;
    v

let scannables_of_class t cls =
  cached t t.scannables_at cls (fun () ->
      List.filter (fun co -> co.co_class = cls && co.co_kind <> Hidden) (collections t))

let class_cardinality t cls =
  cached t t.cardinality_at cls (fun () ->
      match scannables_of_class t cls with
      | [] -> None
      | cos -> Some (List.fold_left (fun acc co -> max acc co.co_card) 0 cos))

let set_distinct t ~cls ~field n =
  Hashtbl.replace t.distinct_tbl (cls, field) n;
  bump_epoch t

let distinct t ~cls ~field = Hashtbl.find_opt t.distinct_tbl (cls, field)

let set_avg_set_size t ~cls ~field n =
  Hashtbl.replace t.set_size_tbl (cls, field) n;
  bump_epoch t

let avg_set_size t ~cls ~field =
  match Hashtbl.find_opt t.set_size_tbl (cls, field) with
  | Some n -> n
  | None -> 10.0

let add_index t ix =
  if List.exists (fun i -> i.ix_name = ix.ix_name) t.indexes then
    invalid_arg (Printf.sprintf "Catalog.add_index: duplicate %s" ix.ix_name);
  if not (Hashtbl.mem t.colls ix.ix_coll) then
    invalid_arg (Printf.sprintf "Catalog.add_index: unknown collection %s" ix.ix_coll);
  t.indexes <- t.indexes @ [ ix ];
  bump_epoch t

let drop_index t name =
  t.indexes <- List.filter (fun i -> i.ix_name <> name) t.indexes;
  bump_epoch t

let indexes t = t.indexes

let indexes_on t ~coll = List.filter (fun i -> i.ix_coll = coll) t.indexes

let find_index t ~coll ~path =
  List.find_opt (fun i -> i.ix_coll = coll && i.ix_path = path) t.indexes

(* Deterministic digest of everything that can change a plan: collections
   with their statistics, index definitions, per-attribute statistics, and
   the schema's class layout. Hash-table contents are emitted in sorted
   order so insertion history does not leak into the digest. *)
let compute_digest t =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun cd ->
      add "class %s:" cd.Schema.cl_name;
      List.iter
        (fun a ->
          add " %s=%s" a.Schema.a_name
            (Format.asprintf "%a" Schema.pp_attr_ty a.Schema.a_ty))
        cd.Schema.cl_attrs;
      add ";")
    (Schema.classes t.schema);
  List.iter
    (fun co ->
      add "coll %s class=%s kind=%d card=%d bytes=%d;" co.co_name co.co_class
        (match co.co_kind with Set -> 0 | Extent -> 1 | Hidden -> 2)
        co.co_card co.co_obj_bytes)
    (collections t);
  List.iter
    (fun ix ->
      add "index %s on %s(%s) distinct=%d;" ix.ix_name ix.ix_coll
        (String.concat "." ix.ix_path) ix.ix_distinct)
    t.indexes;
  let sorted_bindings tbl add_entry =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort Stdlib.compare
    |> List.iter add_entry
  in
  sorted_bindings t.distinct_tbl (fun ((cls, field), n) ->
      add "distinct %s.%s=%d;" cls field n);
  sorted_bindings t.set_size_tbl (fun ((cls, field), n) ->
      add "setsize %s.%s=%h;" cls field n);
  Digest.string (Buffer.contents buf)

let digest t =
  match t.digest_at with
  | Some (epoch, d) when epoch = t.epoch -> d
  | _ ->
    let d = compute_digest t in
    t.digest_at <- Some (t.epoch, d);
    d

let kind_name = function Set -> "set" | Extent -> "extent" | Hidden -> "(none)"

let pp_table ppf t =
  Format.fprintf ppf "%-12s %-18s %-8s %10s %10s@." "Type" "Collection" "Kind" "Card." "Obj[bytes]";
  List.iter
    (fun co ->
      Format.fprintf ppf "%-12s %-18s %-8s %10d %10d@." co.co_class co.co_name
        (kind_name co.co_kind) co.co_card co.co_obj_bytes)
    (collections t)
