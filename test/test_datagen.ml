(* Invariants of the deterministic data generator: the properties the
   experiments (and the paper's derived numbers) rely on. *)

module Value = Oodb_storage.Value
module Store = Oodb_storage.Store
module Catalog = Oodb_catalog.Catalog
module Db = Oodb_exec.Db

let db = Lazy.force Helpers.small_db

let store = Db.store db

let cat = Db.catalog db

let field oid f = Store.field store oid f

let ref_field oid f = Option.get (Value.as_ref (field oid f))

let test_cardinalities_match_catalog () =
  List.iter
    (fun (co : Catalog.collection) ->
      Alcotest.(check int) (co.Catalog.co_name ^ " cardinality") co.Catalog.co_card
        (Store.cardinality store ~coll:co.Catalog.co_name))
    (Catalog.collections cat)

let test_referential_containment () =
  (* every reference lands in the collection Mat-to-Join would join
     against — the assumption that makes the rule sound *)
  let members coll = Store.oids store ~coll in
  let in_coll coll =
    let set = Hashtbl.create 64 in
    List.iter (fun o -> Hashtbl.replace set o ()) (members coll);
    Hashtbl.mem set
  in
  let dept_ok = in_coll "Departments" and job_ok = in_coll "Jobs" in
  List.iter
    (fun e ->
      Alcotest.(check bool) "dept contained" true (dept_ok (ref_field e "dept"));
      Alcotest.(check bool) "job contained" true (job_ok (ref_field e "job")))
    (members "Employees");
  let person_ok = in_coll "Persons" and country_ok = in_coll "Countries" in
  List.iter
    (fun c ->
      Alcotest.(check bool) "mayor contained" true (person_ok (ref_field c "mayor"));
      Alcotest.(check bool) "country contained" true (country_ok (ref_field c "country")))
    (members "Cities");
  let employee_ok = in_coll "Employees" in
  List.iter
    (fun t ->
      List.iter
        (fun m ->
          Alcotest.(check bool) "member contained" true
            (employee_ok (Option.get (Value.as_ref m))))
        (Value.set_elements (field t "team_members")))
    (members "Tasks")

let test_dallas_fraction () =
  (* a tenth of the plants are in Dallas, by construction *)
  let plants = Store.oids store ~coll:"Plant.heap" in
  let dallas =
    List.length
      (List.filter (fun p -> Value.equal (Value.Str "Dallas") (field p "location")) plants)
  in
  Alcotest.(check int) "10% Dallas" (List.length plants / 10) dallas

let test_measured_stats_in_catalog () =
  let measured = Oodb_exec.Analyze.distinct_values db ~coll:"Persons" ~field:"name" in
  Alcotest.(check (option int)) "catalog carries measured stat" (Some measured)
    (Catalog.distinct cat ~cls:"Person" ~field:"name")

let test_determinism () =
  let db2 = Oodb_workloads.Datagen.generate ~scale:0.01 ~buffer_pages:256 () in
  let names d =
    Oodb_storage.Store.oids (Db.store d) ~coll:"Cities"
    |> List.map (fun o -> Oodb_storage.Store.field (Db.store d) o "name")
  in
  Alcotest.(check bool) "same data both times" true (names db = names db2)

let test_indexes_built () =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " physical index") true (Db.find_index db name <> None))
    [ "cities_mayor_name"; "tasks_time"; "employees_name" ];
  Alcotest.(check int) "catalog index defs" 3 (List.length (Catalog.indexes cat))

let test_fred_and_joe_exist () =
  let has coll fieldname v =
    List.exists (fun o -> Value.equal (Value.Str v) (field o fieldname)) (Store.oids store ~coll)
  in
  Alcotest.(check bool) "a Fred exists" true (has "Employees" "name" "Fred");
  Alcotest.(check bool) "a Joe exists" true (has "Persons" "name" "Joe")

let () =
  Alcotest.run "datagen"
    [ ( "invariants",
        [ Alcotest.test_case "cardinalities match catalog" `Quick test_cardinalities_match_catalog;
          Alcotest.test_case "referential containment" `Quick test_referential_containment;
          Alcotest.test_case "Dallas fraction" `Quick test_dallas_fraction;
          Alcotest.test_case "measured statistics" `Quick test_measured_stats_in_catalog;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "physical indexes" `Quick test_indexes_built;
          Alcotest.test_case "Fred and Joe exist" `Quick test_fred_and_joe_exist ] ) ]
