module Value = Oodb_storage.Value
module Store = Oodb_storage.Store
module Btree_index = Oodb_storage.Btree_index
module Catalog = Oodb_catalog.Catalog
module OC = Oodb_catalog.Open_oodb_catalog
module Db = Oodb_exec.Db

type counts = {
  n_plants : int;
  n_jobs : int;
  n_depts : int;
  n_persons : int;
  n_capitals : int;
  n_countries : int;
  n_cities : int;
  n_employees : int;
  n_tasks : int;
  n_info : int;
  person_names : int;  (** distinct person-name pool (includes "Joe") *)
  employee_names : int;  (** distinct employee-name pool (includes "Fred") *)
  task_times : int;  (** distinct completion times *)
  team_size : int;
}

let counts_of_scale scale =
  let s n lo = max lo (int_of_float (float_of_int n *. scale)) in
  let n_persons = s 100_000 50 in
  let n_employees = s 50_000 50 in
  let n_tasks = s 10_000 20 in
  { n_plants = s 100 10;
    n_jobs = s 5_000 10;
    n_depts = s 1_000 20;
    n_persons;
    n_capitals = s 160 4;
    n_countries = s 160 4;
    n_cities = s 10_000 20;
    n_employees;
    n_tasks;
    n_info = s 1_000 5;
    person_names = min 5_000 (max 2 (n_persons / 20));
    employee_names = min 100 (max 2 (n_employees / 20));
    task_times = min 1_000 (max 2 (n_tasks / 10));
    team_size = 9 }

let vstr s = Value.Str s

let vint i = Value.Int i

let vref o = Value.Ref o

(* Object sizes from Table 1 (bytes). *)
let obj_bytes =
  [ ("Capitals", 400); ("Cities", 200); ("Countries", 300); ("Departments", 400);
    ("Employees", 250); ("Information", 400); ("Jobs", 250); ("Persons", 100);
    ("Plant.heap", 1_000); ("Tasks", 150) ]

let person_name c i = if i mod c.person_names = 0 then "Joe" else Printf.sprintf "pname_%d" (i mod c.person_names)

let employee_name c i =
  if i mod c.employee_names = 0 then "Fred" else Printf.sprintf "ename_%d" (i mod c.employee_names)

let plant_location i = if i mod 10 = 0 then "Dallas" else Printf.sprintf "loc_%d" (i mod 10)

let build_data store c =
  let cls_of = [ ("Capitals", "Capital"); ("Cities", "City"); ("Countries", "Country");
                 ("Departments", "Department"); ("Employees", "Employee");
                 ("Information", "Information"); ("Jobs", "Job"); ("Persons", "Person");
                 ("Plant.heap", "Plant"); ("Tasks", "Task") ] in
  List.iter
    (fun (coll, bytes) ->
      Store.declare_collection store ~name:coll ~cls:(List.assoc coll cls_of) ~obj_bytes:bytes)
    obj_bytes;
  let tabulate n f = Array.init n f in
  let plants =
    tabulate c.n_plants (fun i ->
        Store.insert store ~coll:"Plant.heap"
          [ ("name", vstr (Printf.sprintf "plant_%d" i)); ("location", vstr (plant_location i)) ])
  in
  let jobs =
    tabulate c.n_jobs (fun i ->
        Store.insert store ~coll:"Jobs"
          [ ("name", vstr (Printf.sprintf "job_%d" i)); ("level", vint (i mod 10)) ])
  in
  let depts =
    tabulate c.n_depts (fun i ->
        Store.insert store ~coll:"Departments"
          [ ("name", vstr (Printf.sprintf "dept_%d" i));
            ("floor", vint ((i mod 10) + 1));
            ("plant", vref plants.(i mod c.n_plants)) ])
  in
  let persons =
    tabulate c.n_persons (fun i ->
        Store.insert store ~coll:"Persons"
          [ ("name", vstr (person_name c i)); ("age", vint (20 + (i mod 80))) ])
  in
  let capitals =
    tabulate c.n_capitals (fun i ->
        Store.insert store ~coll:"Capitals"
          [ ("name", vstr (Printf.sprintf "capital_%d" i)); ("population", vint (10_000 * (i + 1))) ])
  in
  let countries =
    tabulate c.n_countries (fun i ->
        Store.insert store ~coll:"Countries"
          [ ("name", vstr (Printf.sprintf "country_%d" i));
            ("president", vref persons.(i * 613 mod c.n_persons));
            ("capital", vref capitals.(i mod c.n_capitals)) ])
  in
  let _cities =
    tabulate c.n_cities (fun i ->
        Store.insert store ~coll:"Cities"
          [ ("name", vstr (Printf.sprintf "city_%d" i));
            ("population", vint (1_000 * ((i mod 977) + 1)));
            (* a large coprime multiplier scatters mayors across the Person
               extent (realistic disk layout); exactly 2 of 10,000 cities
               get a "Joe" at scale 1 since gcd(57331, 5000) = 1 *)
            ("mayor", vref persons.(i * 57331 mod c.n_persons));
            ("country", vref countries.(i mod c.n_countries)) ])
  in
  let employees =
    tabulate c.n_employees (fun i ->
        Store.insert store ~coll:"Employees"
          [ ("name", vstr (employee_name c i));
            ("age", vint (20 + (i mod 46)));
            ("salary", Value.Float (20_000.0 +. float_of_int (i mod 1000) *. 75.0));
            ("last_raise", Value.Date (Value.date_of_ymd (1988 + (i mod 6)) ((i mod 12) + 1) 1));
            ("dept", vref depts.(i mod c.n_depts));
            ("job", vref jobs.(i mod c.n_jobs)) ])
  in
  let _tasks =
    tabulate c.n_tasks (fun i ->
        let members =
          List.init c.team_size (fun k ->
              (* Every other task whose time lands on 100 gets employee 0
                 (a "Fred") as a member, so Query 4 has a non-empty
                 result (5 rows at scale 1). *)
              if k = 0 && i mod (2 * c.task_times) = 99 then 0
              else ((i * 7) + (k * 13)) mod c.n_employees)
          |> List.sort_uniq compare
          |> List.map (fun e -> vref employees.(e))
        in
        Store.insert store ~coll:"Tasks"
          [ ("name", vstr (Printf.sprintf "task_%d" i));
            ("time", vint ((i mod c.task_times) + 1));
            ("team_members", Value.Set members) ])
  in
  let _info =
    tabulate c.n_info (fun i ->
        Store.insert store ~coll:"Information"
          [ ("subject", vstr (Printf.sprintf "subject_%d" i));
            ("body", vstr (Printf.sprintf "body of document %d" i)) ])
  in
  ()

(* Generic measured-statistics and index installation helpers, shared
   between this module's Table-1 database and the scenario factory's
   generated databases (lib/scenario). *)

let measured_distinct store ~coll ~field =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun oid -> Hashtbl.replace seen (Store.field store oid field) ())
    (Store.oids store ~coll);
  Hashtbl.length seen

let measured_avg_set_size store ~coll ~field =
  let total, n =
    List.fold_left
      (fun (total, n) oid ->
        (total + List.length (Value.set_elements (Store.field store oid field)),
         n + 1))
      (0, 0) (Store.oids store ~coll)
  in
  float_of_int total /. float_of_int (max 1 n)

let install_index store db cat ~name ~coll ~path ~key =
  let ix = Btree_index.build store ~name ~coll ~key in
  Db.add_index db ix;
  Catalog.add_index cat
    { Catalog.ix_name = name;
      ix_coll = coll;
      ix_path = path;
      ix_distinct = Btree_index.distinct_keys ix }

let add_field_index store db cat ~name ~coll ~field =
  install_index store db cat ~name ~coll ~path:[ field ] ~key:(fun oid ->
      Store.field store oid field)

let add_path_index store db cat ~name ~coll ~ref_field ~field =
  install_index store db cat ~name ~coll ~path:[ ref_field; field ] ~key:(fun oid ->
      match Value.as_ref (Store.field store oid ref_field) with
      | Some target -> Store.field store target field
      | None -> Value.Null)

let measured_catalog store =
  let cat = Catalog.create (OC.schema ()) in
  let kind_of = function
    | "Capitals" | "Cities" | "Employees" | "Tasks" -> Catalog.Set
    | "Plant.heap" -> Catalog.Hidden
    | _ -> Catalog.Extent
  in
  let cls_of coll = Store.class_of store (List.hd (Store.oids store ~coll)) in
  List.iter
    (fun (coll, bytes) ->
      Catalog.add_collection cat
        { Catalog.co_name = coll;
          co_class = cls_of coll;
          co_kind = kind_of coll;
          co_card = Store.cardinality store ~coll;
          co_obj_bytes = bytes })
    obj_bytes;
  (* Measured distinct-value statistics (same set of attributes as the
     paper-exact catalog; Task.time and Employee.name intentionally come
     only from index statistics). *)
  let distinct coll field = measured_distinct store ~coll ~field in
  Catalog.set_distinct cat ~cls:"Person" ~field:"name" (distinct "Persons" "name");
  Catalog.set_distinct cat ~cls:"Person" ~field:"age" (distinct "Persons" "age");
  Catalog.set_distinct cat ~cls:"Plant" ~field:"location" (distinct "Plant.heap" "location");
  Catalog.set_distinct cat ~cls:"Department" ~field:"floor" (distinct "Departments" "floor");
  Catalog.set_distinct cat ~cls:"City" ~field:"name" (distinct "Cities" "name");
  Catalog.set_distinct cat ~cls:"Job" ~field:"name" (distinct "Jobs" "name");
  Catalog.set_avg_set_size cat ~cls:"Task" ~field:"team_members"
    (measured_avg_set_size store ~coll:"Tasks" ~field:"team_members");
  cat

let build_indexes store db cat =
  add_path_index store db cat ~name:"cities_mayor_name" ~coll:"Cities" ~ref_field:"mayor"
    ~field:"name";
  add_field_index store db cat ~name:"tasks_time" ~coll:"Tasks" ~field:"time";
  add_field_index store db cat ~name:"employees_name" ~coll:"Employees" ~field:"name"

let generate ?(scale = 1.0) ?buffer_pages () =
  let c = counts_of_scale scale in
  let buffer_pages =
    match buffer_pages with
    | Some n -> n
    | None -> Oodb_cost.Config.default.Oodb_cost.Config.buffer_pages
  in
  let store = Store.create ~buffer_pages () in
  build_data store c;
  let cat = measured_catalog store in
  let db = Db.create cat store in
  build_indexes store db cat;
  db

let generate_catalog_only ?scale () = Db.catalog (generate ?scale ~buffer_pages:64 ())

(* The feedback-loop demo: the same database, but with the name
   statistics corrupted to claim only [skewed_distinct] distinct employee
   names where the data really has ~100. The estimator then prices
   [name = "Fred"] at selectivity 1/2 — thousands of phantom matches —
   so the cold optimizer rejects the name index in favor of a full scan,
   and the first profiled execution records a large q-error (~card/2
   estimated vs ~card/100 actual), which one harvest corrects. Both the
   class distinct and the index's [ix_distinct] are corrupted, keeping
   Select and collapse-index-scan pricing consistent. The corruption is deterministic, so the catalog's
   (epoch, digest) — and with them plan-cache fingerprints and
   feedback-store scopes — agree across processes. *)
let skewed_distinct = 2

let generate_skewed ?scale ?buffer_pages () =
  let db = generate ?scale ?buffer_pages () in
  let cat = Db.catalog db in
  (match Catalog.find_collection cat "Employees" with
  | Some co ->
    Catalog.set_distinct cat ~cls:co.Catalog.co_class ~field:"name" skewed_distinct
  | None -> ());
  (match
     List.find_opt
       (fun ix -> String.equal ix.Catalog.ix_name "employees_name")
       (Catalog.indexes cat)
   with
  | Some ix ->
    Catalog.drop_index cat "employees_name";
    Catalog.add_index cat { ix with Catalog.ix_distinct = skewed_distinct }
  | None -> ());
  db

(* ------------------------------------------------------------------ *)
(* Enumerated micro-databases for bounded rule certification            *)

(* Tiny instances (2–4 objects per extent) small enough for the
   reference interpreter to evaluate both sides of a rewrite
   exhaustively, yet wired differently enough across variants to exercise
   empty/non-empty selections, dangling-free references, shared targets,
   and team sets of different sizes. Reuses [build_data], so every
   referential invariant of the full generator holds at micro scale. *)
let micro ?(variant = 0) () =
  let n k = 2 + ((variant + k) mod 3) in
  let c =
    { n_plants = n 0;
      n_jobs = n 1;
      n_depts = n 2;
      n_persons = n 3;
      n_capitals = n 4;
      n_countries = n 5;
      n_cities = n 6;
      n_employees = n 7;
      n_tasks = n 8;
      n_info = 2;
      (* tiny name pools force collisions, so equality predicates and the
         workload's "Joe"/"Fred" lookups select real subsets *)
      person_names = 2;
      employee_names = 2;
      task_times = 2;
      team_size = 1 + (variant mod 3) }
  in
  let store = Store.create ~buffer_pages:64 () in
  build_data store c;
  let cat = measured_catalog store in
  let db = Db.create cat store in
  build_indexes store db cat;
  db

let n_micro_variants = 6

let micro_family () = List.init n_micro_variants (fun variant -> micro ~variant ())
