module Schema = Oodb_catalog.Schema
module Catalog = Oodb_catalog.Catalog
module OC = Oodb_catalog.Open_oodb_catalog

let schema = OC.schema ()

let test_schema_lookup () =
  Alcotest.(check bool) "City exists" true (Schema.find_class schema "City" <> None);
  Alcotest.(check bool) "Nope missing" true (Schema.find_class schema "Nope" = None);
  (match Schema.attr_ty schema ~cls:"City" "mayor" with
  | Some (Schema.Ref "Person") -> ()
  | _ -> Alcotest.fail "City.mayor should be ref<Person>");
  match Schema.attr_ty schema ~cls:"Task" "team_members" with
  | Some (Schema.Set_of (Schema.Ref "Employee")) -> ()
  | _ -> Alcotest.fail "Task.team_members should be set<ref<Employee>>"

let test_schema_follow () =
  Alcotest.(check (option string)) "follow mayor" (Some "Person") (Schema.follow schema ~cls:"City" "mayor");
  Alcotest.(check (option string)) "follow set" (Some "Employee")
    (Schema.follow schema ~cls:"Task" "team_members");
  Alcotest.(check (option string)) "terminal" None (Schema.follow schema ~cls:"City" "name")

let test_schema_resolve_path () =
  (match Schema.resolve_path schema ~cls:"Employee" [ "dept"; "plant"; "location" ] with
  | Some Schema.String -> ()
  | _ -> Alcotest.fail "e.dept.plant.location should be a string");
  Alcotest.(check bool) "bad path" true
    (Schema.resolve_path schema ~cls:"Employee" [ "dept"; "nope" ] = None)

let test_schema_validation () =
  Alcotest.check_raises "dangling ref"
    (Invalid_argument "Schema.create: A.b references unknown class B") (fun () ->
      ignore
        (Schema.create
           [ { Schema.cl_name = "A";
               cl_attrs = [ { Schema.a_name = "b"; a_ty = Schema.Ref "B" } ] } ]));
  Alcotest.check_raises "duplicate class" (Invalid_argument "Schema.create: duplicate class A")
    (fun () ->
      ignore
        (Schema.create
           [ { Schema.cl_name = "A"; cl_attrs = [] }; { Schema.cl_name = "A"; cl_attrs = [] } ]))

let test_table1_collections () =
  let cat = OC.catalog () in
  let co name = Option.get (Catalog.find_collection cat name) in
  Alcotest.(check int) "Cities card" 10_000 (co "Cities").Catalog.co_card;
  Alcotest.(check int) "Employees card" 50_000 (co "Employees").Catalog.co_card;
  Alcotest.(check int) "Person extent" 100_000 (co "Persons").Catalog.co_card;
  Alcotest.(check int) "Capital bytes" 400 (co "Capitals").Catalog.co_obj_bytes;
  Alcotest.(check bool) "Plant hidden" true ((co "Plant.heap").Catalog.co_kind = Catalog.Hidden)

let test_scannables_and_cardinality () =
  let cat = OC.catalog () in
  Alcotest.(check int) "Employee scannables" 1
    (List.length (Catalog.scannables_of_class cat "Employee"));
  Alcotest.(check (list string)) "Plant not scannable" []
    (List.map (fun c -> c.Catalog.co_name) (Catalog.scannables_of_class cat "Plant"));
  Alcotest.(check (option int)) "Plant no cardinality" None (Catalog.class_cardinality cat "Plant");
  Alcotest.(check (option int)) "Department cardinality" (Some 1_000)
    (Catalog.class_cardinality cat "Department")

let test_indexes () =
  let cat = OC.catalog () in
  Alcotest.(check int) "no indexes initially" 0 (List.length (Catalog.indexes cat));
  Catalog.add_index cat OC.idx_tasks_time;
  Catalog.add_index cat OC.idx_cities_mayor_name;
  Alcotest.(check bool) "path index found" true
    (Catalog.find_index cat ~coll:"Cities" ~path:[ "mayor"; "name" ] <> None);
  Alcotest.(check bool) "wrong path" true
    (Catalog.find_index cat ~coll:"Cities" ~path:[ "mayor" ] = None);
  Alcotest.(check int) "indexes_on Tasks" 1 (List.length (Catalog.indexes_on cat ~coll:"Tasks"));
  Catalog.drop_index cat "tasks_time";
  Alcotest.(check bool) "dropped" true (Catalog.find_index cat ~coll:"Tasks" ~path:[ "time" ] = None);
  Catalog.drop_index cat "no-such-index" (* ignored *)

let test_index_errors () =
  let cat = OC.catalog () in
  Catalog.add_index cat OC.idx_tasks_time;
  Alcotest.check_raises "duplicate index" (Invalid_argument "Catalog.add_index: duplicate tasks_time")
    (fun () -> Catalog.add_index cat OC.idx_tasks_time);
  Alcotest.check_raises "unknown collection"
    (Invalid_argument "Catalog.add_index: unknown collection Nope") (fun () ->
      Catalog.add_index cat
        { Catalog.ix_name = "x"; ix_coll = "Nope"; ix_path = [ "a" ]; ix_distinct = 1 })

let test_stats () =
  let cat = OC.catalog () in
  Alcotest.(check (option int)) "person names" (Some 5_000)
    (Catalog.distinct cat ~cls:"Person" ~field:"name");
  Alcotest.(check (option int)) "no Task.time stat" None
    (Catalog.distinct cat ~cls:"Task" ~field:"time");
  Alcotest.(check (float 0.01)) "team size" 9.0
    (Catalog.avg_set_size cat ~cls:"Task" ~field:"team_members");
  Alcotest.(check (float 0.01)) "default set size" 10.0
    (Catalog.avg_set_size cat ~cls:"City" ~field:"whatever")

let test_duplicate_collection () =
  let cat = OC.catalog () in
  Alcotest.check_raises "dup" (Invalid_argument "Catalog.add_collection: duplicate Cities")
    (fun () ->
      Catalog.add_collection cat
        { Catalog.co_name = "Cities";
          co_class = "City";
          co_kind = Catalog.Set;
          co_card = 1;
          co_obj_bytes = 1 })

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_pp_table () =
  let cat = OC.catalog () in
  let s = Format.asprintf "%a" Catalog.pp_table cat in
  Alcotest.(check bool) "mentions Cities" true (contains s "Cities");
  Alcotest.(check bool) "mentions extent kind" true (contains s "extent")

(* The digest is cached per epoch: after every mutator it must still
   equal the digest of a catalog built fresh with the same contents. *)
let test_digest_follows_mutations () =
  let co name cls card =
    { Catalog.co_name = name; co_class = cls; co_kind = Catalog.Set; co_card = card;
      co_obj_bytes = 100 }
  in
  let ix name path = { Catalog.ix_name = name; ix_coll = "Cities"; ix_path = path; ix_distinct = 7 } in
  let steps =
    [ (fun c -> Catalog.add_collection c (co "Cities" "City" 100));
      (fun c -> Catalog.add_collection c (co "Tasks" "Task" 20));
      (fun c -> Catalog.set_distinct c ~cls:"City" ~field:"name" 50);
      (fun c -> Catalog.set_avg_set_size c ~cls:"Task" ~field:"team_members" 4.5);
      (fun c -> Catalog.add_index c (ix "by_name" [ "name" ]));
      (fun c -> Catalog.add_index c (ix "by_mayor" [ "mayor"; "name" ]));
      (fun c -> Catalog.drop_index c "by_name") ]
  in
  let fresh k =
    let c = Catalog.create schema in
    List.iteri (fun i step -> if i < k then step c) steps;
    c
  in
  let mutated = Catalog.create schema in
  List.iteri
    (fun i step ->
      ignore (Catalog.digest mutated);
      step mutated;
      Alcotest.(check string)
        (Printf.sprintf "after step %d" (i + 1))
        (Digest.to_hex (Catalog.digest (fresh (i + 1))))
        (Digest.to_hex (Catalog.digest mutated)))
    steps

(* Collections, scannable collections and class cardinalities are cached
   per epoch: after every mutator, answers asked of a catalog whose caches
   were warm must equal a fresh catalog's with the same contents. *)
let test_answers_follow_mutations () =
  let co name cls kind card =
    { Catalog.co_name = name; co_class = cls; co_kind = kind; co_card = card;
      co_obj_bytes = 100 }
  in
  let steps =
    [ (fun c -> Catalog.add_collection c (co "Cities" "City" Catalog.Set 100));
      (fun c -> Catalog.add_collection c (co "Persons" "Person" Catalog.Extent 1000));
      (fun c -> Catalog.add_collection c (co "Plant.heap" "Plant" Catalog.Hidden 10));
      (fun c -> Catalog.set_distinct c ~cls:"City" ~field:"name" 50);
      (fun c -> Catalog.add_collection c (co "AllCities" "City" Catalog.Extent 500));
      (fun c -> Catalog.set_avg_set_size c ~cls:"Task" ~field:"team_members" 4.5);
      (fun c ->
        Catalog.add_index c
          { Catalog.ix_name = "by_name"; ix_coll = "Cities"; ix_path = [ "name" ];
            ix_distinct = 7 });
      (fun c -> Catalog.drop_index c "by_name");
      (fun c -> Catalog.add_collection c (co "Tasks" "Task" Catalog.Set 20));
      Catalog.bump_epoch ]
  in
  let answers c =
    let names cos = String.concat "," (List.map (fun co -> co.Catalog.co_name) cos) in
    names (Catalog.collections c)
    :: List.map
         (fun cls ->
           Printf.sprintf "%s: [%s] %s" cls
             (names (Catalog.scannables_of_class c cls))
             (match Catalog.class_cardinality c cls with
             | Some n -> string_of_int n
             | None -> "none"))
         [ "City"; "Person"; "Plant"; "Task"; "Employee" ]
  in
  let fresh k =
    let c = Catalog.create schema in
    List.iteri (fun i step -> if i < k then step c) steps;
    c
  in
  let mutated = Catalog.create schema in
  List.iteri
    (fun i step ->
      ignore (answers mutated);
      step mutated;
      Alcotest.(check (list string))
        (Printf.sprintf "after step %d" (i + 1))
        (answers (fresh (i + 1)))
        (answers mutated))
    steps;
  Alcotest.(check (option int)) "largest collection wins" (Some 500)
    (Catalog.class_cardinality mutated "City")

let test_digest_tracks_statistics () =
  let c = OC.catalog_with_indexes () in
  let d0 = Catalog.digest c in
  let n = Option.get (Catalog.distinct c ~cls:"Person" ~field:"name") in
  Catalog.set_distinct c ~cls:"Person" ~field:"name" (n + 1);
  Alcotest.(check bool) "changed statistic changes the digest" false
    (Digest.equal d0 (Catalog.digest c));
  Catalog.set_distinct c ~cls:"Person" ~field:"name" n;
  Alcotest.(check string) "restored statistic restores the digest" (Digest.to_hex d0)
    (Digest.to_hex (Catalog.digest c));
  Alcotest.(check string) "same as a fresh catalog"
    (Digest.to_hex (Catalog.digest (OC.catalog_with_indexes ())))
    (Digest.to_hex (Catalog.digest c))

let () =
  Alcotest.run "catalog"
    [ ( "schema",
        [ Alcotest.test_case "class and attribute lookup" `Quick test_schema_lookup;
          Alcotest.test_case "reference following" `Quick test_schema_follow;
          Alcotest.test_case "path resolution" `Quick test_schema_resolve_path;
          Alcotest.test_case "validation" `Quick test_schema_validation ] );
      ( "table1",
        [ Alcotest.test_case "collection statistics" `Quick test_table1_collections;
          Alcotest.test_case "scannables and class cardinality" `Quick
            test_scannables_and_cardinality;
          Alcotest.test_case "distinct statistics" `Quick test_stats;
          Alcotest.test_case "duplicate collection" `Quick test_duplicate_collection;
          Alcotest.test_case "table rendering" `Quick test_pp_table ] );
      ( "indexes",
        [ Alcotest.test_case "add / find / drop" `Quick test_indexes;
          Alcotest.test_case "errors" `Quick test_index_errors ] );
      ( "digest",
        [ Alcotest.test_case "cached digest follows every mutator" `Quick
            test_digest_follows_mutations;
          Alcotest.test_case "cached answers follow every mutator" `Quick
            test_answers_follow_mutations;
          Alcotest.test_case "statistic change and restore" `Quick test_digest_tracks_statistics ] ) ]
