module Value = Oodb_storage.Value
module Pred = Oodb_algebra.Pred
module Logical = Oodb_algebra.Logical
module OC = Oodb_catalog.Open_oodb_catalog
module Q = Oodb_workloads.Queries

let cat = OC.catalog ()

let atom = Pred.atom Pred.Eq (Pred.Field ("c", "name")) (Pred.Const (Value.Str "x"))

let ref_atom = Pred.atom Pred.Eq (Pred.Field ("e", "dept")) (Pred.Self "d")

(* ------------------------------------------------------------------ *)
(* Predicates                                                           *)

let test_pred_bindings () =
  Alcotest.(check (list string)) "bindings" [ "c"; "e"; "d" ] (Pred.bindings [ atom; ref_atom ]);
  Alcotest.(check (list string)) "memory bindings exclude Self" [ "c"; "e" ]
    (Pred.memory_bindings [ atom; ref_atom ])

let test_pred_ref_eq () =
  Alcotest.(check bool) "detects link" true (Pred.ref_eq_sides ref_atom = Some ("e", "dept", "d"));
  let mirrored = Pred.atom Pred.Eq (Pred.Self "d") (Pred.Field ("e", "dept")) in
  Alcotest.(check bool) "mirrored link" true (Pred.ref_eq_sides mirrored = Some ("e", "dept", "d"));
  Alcotest.(check bool) "not a link" true (Pred.ref_eq_sides atom = None)

let test_pred_flip () =
  Alcotest.(check bool) "lt" true (Pred.flip Pred.Lt = Pred.Gt);
  Alcotest.(check bool) "eq" true (Pred.flip Pred.Eq = Pred.Eq);
  Alcotest.(check bool) "le" true (Pred.flip Pred.Le = Pred.Ge)

let test_pred_rename () =
  let renamed = Pred.rename (fun b -> if b = "c" then "z" else b) [ atom ] in
  Alcotest.(check (list string)) "renamed" [ "z" ] (Pred.bindings renamed)

let test_pred_pp () =
  Alcotest.(check string) "atom" "c.name == \"x\"" (Pred.to_string [ atom ]);
  Alcotest.(check string) "conj" "c.name == \"x\" && e.dept == d.self"
    (Pred.to_string [ atom; ref_atom ]);
  Alcotest.(check string) "true" "true" (Pred.to_string [])

(* ------------------------------------------------------------------ *)
(* Logical algebra                                                      *)

let test_arity () =
  Alcotest.(check int) "get" 0 (Logical.arity (Logical.Get { coll = "Cities"; binding = "c" }));
  Alcotest.(check int) "select" 1 (Logical.arity (Logical.Select []));
  Alcotest.(check int) "join" 2 (Logical.arity (Logical.Join []));
  Alcotest.(check int) "union" 2 (Logical.arity Logical.Union);
  Alcotest.(check int) "mat" 1
    (Logical.arity (Logical.Mat { src = "a"; field = None; out = "b" }))

let test_scope () =
  Alcotest.(check (list string)) "q1 scope narrowed by project"
    [ "e"; "e.job"; "e.dept" ] (Logical.scope Q.q1);
  Alcotest.(check (list string)) "q2 scope" [ "c"; "c.mayor" ] (Logical.scope Q.q2);
  Alcotest.(check (list string)) "q4 scope" [ "t"; "m"; "e" ] (Logical.scope Q.q4)

let test_well_formed_queries () =
  List.iter
    (fun (name, q) ->
      match Logical.well_formed cat q with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s not well-formed: %s" name m)
    Q.all

let test_ill_formed () =
  let bad msg expr =
    match Logical.well_formed cat expr with
    | Ok () -> Alcotest.failf "expected failure: %s" msg
    | Error _ -> ()
  in
  bad "unknown collection" (Logical.get ~coll:"Nope" ~binding:"x");
  bad "unknown binding in select"
    (Logical.select
       [ Pred.atom Pred.Eq (Pred.Field ("zz", "name")) (Pred.Const (Value.Str "x")) ]
       (Logical.get ~coll:"Cities" ~binding:"c"));
  bad "unknown attribute"
    (Logical.select
       [ Pred.atom Pred.Eq (Pred.Field ("c", "nope")) (Pred.Const (Value.Str "x")) ]
       (Logical.get ~coll:"Cities" ~binding:"c"));
  bad "mat over non-reference"
    (Logical.mat ~src:"c" ~field:"name" (Logical.get ~coll:"Cities" ~binding:"c"));
  bad "unnest over non-set"
    (Logical.unnest ~src:"c" ~field:"mayor" (Logical.get ~coll:"Cities" ~binding:"c"));
  bad "duplicate binding"
    (Logical.join []
       (Logical.get ~coll:"Cities" ~binding:"c")
       (Logical.get ~coll:"Cities" ~binding:"c"));
  bad "set op scope mismatch"
    (Logical.union
       (Logical.get ~coll:"Cities" ~binding:"c")
       (Logical.get ~coll:"Capitals" ~binding:"k"))

let test_binding_class () =
  (* q1's root projection narrows the scope, dropping e.dept.plant *)
  Alcotest.(check (option string)) "projected away" None
    (Logical.binding_class cat Q.q1 "e.dept.plant");
  Alcotest.(check (option string)) "mat target" (Some "Department")
    (Logical.binding_class cat Q.q1 "e.dept");
  Alcotest.(check (option string)) "unnest+mat target" (Some "Employee")
    (Logical.binding_class cat Q.q4 "e");
  Alcotest.(check (option string)) "missing" None (Logical.binding_class cat Q.q1 "nope")

let test_structural_equality () =
  Alcotest.(check bool) "equal to itself" true (Logical.equal Q.q2 Q.q2);
  Alcotest.(check bool) "hash stable" true (Logical.hash Q.q2 = Logical.hash Q.q2);
  Alcotest.(check bool) "distinct queries differ" false (Logical.equal Q.q1 Q.q2)

let test_pp_fig2 () =
  (* the rendering mirrors the paper's Figure 2 *)
  let expected =
    "Select c.mayor.name == c.country.president.name\n\
     |\n\
     Mat c.country.president\n\
     |\n\
     Mat c.country\n\
     |\n\
     Mat c.mayor\n\
     |\n\
     Get Cities: c"
  in
  Alcotest.(check string) "figure 2" expected (Logical.to_string Q.fig2)

let test_pp_mat_ref () =
  let s = Logical.to_string Q.fig3 in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mat-ref rendering" true (contains s "Mat m: e");
  Alcotest.(check bool) "unnest rendering" true (contains s "Unnest t.team_members: m")

let test_set_ops_well_formed () =
  let cities b = Logical.get ~coll:"Cities" ~binding:b in
  let sub b =
    Logical.select [ Pred.atom Pred.Ge (Pred.Field (b, "population")) (Pred.Const (Value.Int 1)) ]
      (cities b)
  in
  match Logical.well_formed cat (Logical.union (sub "c") (sub "c")) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "union should be well-formed: %s" m

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)

let binding_gen = QCheck2.Gen.oneofl [ "a"; "b"; "c"; "d" ]

let operand_gen =
  let open QCheck2.Gen in
  oneof
    [ map (fun b -> Pred.Self b) binding_gen;
      map2 (fun b f -> Pred.Field (b, f)) binding_gen (oneofl [ "x"; "y" ]);
      map (fun i -> Pred.Const (Value.Int i)) small_signed_int ]

let atom_gen =
  let open QCheck2.Gen in
  map3
    (fun cmp l r -> Pred.atom cmp l r)
    (oneofl [ Pred.Eq; Pred.Ne; Pred.Lt; Pred.Le; Pred.Gt; Pred.Ge ])
    operand_gen operand_gen

let prop_rename_id =
  QCheck2.Test.make ~name:"rename with identity is identity" ~count:200
    (QCheck2.Gen.list_size (QCheck2.Gen.int_bound 5) atom_gen)
    (fun p -> Pred.equal p (Pred.rename (fun b -> b) p))

let prop_rename_compose =
  QCheck2.Test.make ~name:"rename composes" ~count:200
    (QCheck2.Gen.list_size (QCheck2.Gen.int_bound 5) atom_gen)
    (fun p ->
      let f b = b ^ "1" and g b = b ^ "2" in
      Pred.equal (Pred.rename (fun b -> g (f b)) p) (Pred.rename g (Pred.rename f p)))

let prop_memory_subset_bindings =
  QCheck2.Test.make ~name:"memory_bindings subset of bindings" ~count:200
    (QCheck2.Gen.list_size (QCheck2.Gen.int_bound 5) atom_gen)
    (fun p ->
      let all = Pred.bindings p in
      List.for_all (fun b -> List.mem b all) (Pred.memory_bindings p))

(* The hash-table dedup [Pred.dedup] replaced, kept as its reference. *)
let dedup_by_table bs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun b ->
      if Hashtbl.mem seen b then false
      else begin
        Hashtbl.add seen b ();
        true
      end)
    bs

let prop_dedup_matches_table =
  QCheck2.Test.make ~name:"dedup keeps first occurrences, as the hash-table version" ~count:500
    QCheck2.Gen.(list_size (int_bound 12) (oneofl [ "a"; "b"; "c"; "d"; "e"; "f"; "a.b"; "" ]))
    (fun bs -> Pred.dedup bs = dedup_by_table bs)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "algebra"
    [ ( "pred",
        [ Alcotest.test_case "bindings" `Quick test_pred_bindings;
          Alcotest.test_case "ref equality detection" `Quick test_pred_ref_eq;
          Alcotest.test_case "comparison flip" `Quick test_pred_flip;
          Alcotest.test_case "rename" `Quick test_pred_rename;
          Alcotest.test_case "printing" `Quick test_pred_pp ] );
      ( "logical",
        [ Alcotest.test_case "operator arity" `Quick test_arity;
          Alcotest.test_case "scope computation" `Quick test_scope;
          Alcotest.test_case "paper queries well-formed" `Quick test_well_formed_queries;
          Alcotest.test_case "ill-formed rejected" `Quick test_ill_formed;
          Alcotest.test_case "binding classes" `Quick test_binding_class;
          Alcotest.test_case "structural equality" `Quick test_structural_equality;
          Alcotest.test_case "figure 2 rendering" `Quick test_pp_fig2;
          Alcotest.test_case "mat-ref rendering" `Quick test_pp_mat_ref;
          Alcotest.test_case "set operators" `Quick test_set_ops_well_formed ] );
      ( "properties",
        qcheck
          [ prop_rename_id;
            prop_rename_compose;
            prop_memory_subset_bindings;
            prop_dedup_matches_table ] )
    ]
