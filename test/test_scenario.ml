(* The scenario factory: generator determinism, differential fuzzing,
   effectiveness scoring, and the shrinking machinery. *)

module Scenario = Oodb_scenario.Scenario
module Schemagen = Oodb_scenario.Schemagen
module Querygen = Oodb_scenario.Querygen
module Differential = Oodb_scenario.Differential
module Effectiveness = Oodb_scenario.Effectiveness
module Catalog = Oodb_catalog.Catalog
module Db = Oodb_exec.Db
module Options = Open_oodb.Options
module Ast = Zql.Ast

let seed = 42

(* ------------------------------------------------------------------ *)
(* Determinism *)

let test_same_seed_same_digest () =
  let a = Scenario.generate ~seed ~index:3 () in
  let b = Scenario.generate ~seed ~index:3 () in
  Alcotest.(check string) "digests equal" (Scenario.digest a) (Scenario.digest b);
  Alcotest.(check (list string))
    "zql texts equal"
    (List.map (fun q -> q.Scenario.qc_zql) a.Scenario.sc_queries)
    (List.map (fun q -> q.Scenario.qc_zql) b.Scenario.sc_queries)

let test_different_seed_different_digest () =
  let a = Scenario.generate ~seed ~index:0 () in
  let b = Scenario.generate ~seed:(seed + 1) ~index:0 () in
  if Scenario.digest a = Scenario.digest b then
    Alcotest.fail "different seeds produced identical scenarios"

(* Scenario [i] must not depend on how many scenarios are generated
   around it: streams are derived per (seed, index). *)
let test_prefix_stability () =
  let ten = List.init 10 (fun index -> Scenario.generate ~seed ~index ()) in
  let three = List.init 3 (fun index -> Scenario.generate ~seed ~index ()) in
  List.iteri
    (fun i sc ->
      Alcotest.(check string)
        (Printf.sprintf "scenario %d digest" i)
        (Scenario.digest (List.nth ten i))
        (Scenario.digest sc))
    three

let test_build_db_deterministic () =
  let sc = Scenario.generate ~seed ~index:1 () in
  let d1 = Catalog.digest (Db.catalog (Scenario.build_db sc)) in
  let d2 = Catalog.digest (Db.catalog (Scenario.build_db sc)) in
  Alcotest.(check string) "catalog digests equal" (Digest.to_hex d1) (Digest.to_hex d2)

(* The stored data, pinned: digests of seed 42's first ten scenarios and
   of the object dump of the scale-0.05 Table-1 database, recorded
   before the store's representation changed. A different value here
   means a different database, not a different layout. *)
let pinned_scenario_digests =
  [ "21ee8937d6197023cb267792ad9a2677"; "dda580289e2d122023659c3cf345c49e";
    "b38e5ed0c4815b157a542717c2d2400a"; "1fe41371ca54f8b0f082043dbac03a59";
    "c1fe515b49e5a69668bdb68bb8ff6c9e"; "c8f317d16ab75738257c7e3d230bc0ff";
    "64d57b2fe9a42e88e1c118b2d64fb6ab"; "b76eca4ef430a75cb1904ccc8becc969";
    "a0a6987fad5ec4fff42d1b5a509ddc63"; "f9c54acd717a94de1903388fb87e1227" ]

let test_pinned_scenario_digests () =
  List.iteri
    (fun index expected ->
      Alcotest.(check string)
        (Printf.sprintf "scenario %d" index)
        expected
        (Scenario.digest (Scenario.generate ~seed ~index ())))
    pinned_scenario_digests

let test_pinned_datagen_digest () =
  let store = Db.store (Oodb_workloads.Datagen.generate ~scale:0.05 ()) in
  let colls = List.sort compare (Oodb_storage.Store.collections store) in
  Alcotest.(check string) "scale 0.05 objects" "0d035520042f23b9b2bbf114a103dc35"
    (Scenario.objects_digest store colls)

(* ------------------------------------------------------------------ *)
(* Generated artifacts are well-formed *)

let test_queries_compile_and_roundtrip () =
  for index = 0 to 7 do
    let sc = Scenario.generate ~seed ~index () in
    let cat = Scenario.base_catalog sc.Scenario.sc_schema in
    List.iter
      (fun (qc : Scenario.query_case) ->
        (* the text parses back to an AST that simplifies to the same
           logical expression as the generator's (parsed trees carry
           source locations, so AST equality is the wrong judgment) *)
        match Zql.Parser.parse qc.Scenario.qc_zql with
        | Error e ->
          Alcotest.failf "scenario %d %s: does not parse: %s\n%s" index qc.Scenario.qc_name e
            qc.Scenario.qc_zql
        | Ok ast -> (
          match
            Zql.Simplify.query cat ast, Zql.Simplify.query cat qc.Scenario.qc_ast
          with
          | Ok parsed, Ok generated ->
            if parsed <> generated then
              Alcotest.failf "scenario %d %s: parse (to_zql q) simplifies differently\n%s"
                index qc.Scenario.qc_name qc.Scenario.qc_zql
          | Error e, _ | _, Error e ->
            Alcotest.failf "scenario %d %s: does not simplify: %s\n%s" index
              qc.Scenario.qc_name e qc.Scenario.qc_zql))
      sc.Scenario.sc_queries
  done

let test_query_mix () =
  let sc = Scenario.generate ~seed ~index:0 () in
  let names = List.map (fun q -> q.Scenario.qc_name) sc.Scenario.sc_queries in
  List.iter
    (fun expected ->
      if not (List.mem expected names) then Alcotest.failf "missing %s query" expected)
    [ "lookup"; "rich"; "setop"; "rand0" ];
  (* the rich query really is a multi-way join *)
  let rich =
    List.find (fun q -> q.Scenario.qc_name = "rich") sc.Scenario.sc_queries
  in
  if List.length rich.Scenario.qc_ast.Ast.q_from < 2 then
    Alcotest.fail "rich query has fewer than 2 ranges"

(* ------------------------------------------------------------------ *)
(* Differential harness *)

let test_differential_passes () =
  for index = 0 to 2 do
    let sc = Scenario.generate ~seed ~index () in
    let r = Differential.run sc in
    (match r.Differential.d_failures with
    | [] -> ()
    | f :: _ ->
      Alcotest.failf "scenario %d: %s under %s: %s\nzql: %s\nshrunk: %s" index
        f.Differential.f_query f.Differential.f_variant f.Differential.f_detail
        f.Differential.f_zql f.Differential.f_shrunk_zql);
    Alcotest.(check bool) "ran checks" true (r.Differential.d_checks > 0)
  done

(* The shrinker minimizes against an injected failure predicate: a
   "variant" that disagrees whenever a WHERE clause with at least one
   conjunct and a set operation are both present must shrink away
   everything else. *)
let test_shrink_machinery () =
  let sc = Scenario.generate ~seed ~index:0 () in
  let setop =
    List.find (fun q -> q.Scenario.qc_name = "setop") sc.Scenario.sc_queries
  in
  let q = setop.Scenario.qc_ast in
  (* inflate the query with droppable structure *)
  let inflated = { q with Ast.q_setops = q.Ast.q_setops @ q.Ast.q_setops } in
  let fails (q' : Ast.query) = q'.Ast.q_setops <> [] in
  let rec go q =
    match List.find_opt fails (Differential.shrink_candidates q) with
    | Some q' -> go q'
    | None -> q
  in
  let shrunk = go inflated in
  Alcotest.(check int) "one setop branch left" 1 (List.length shrunk.Ast.q_setops);
  Alcotest.(check bool) "where dropped" true (shrunk.Ast.q_where = None)

(* ------------------------------------------------------------------ *)
(* Effectiveness *)

let test_effectiveness_rich_alternatives () =
  let sc = Scenario.generate ~seed ~index:0 () in
  let db = Scenario.build_db sc in
  let rich = List.find (fun q -> q.Scenario.qc_name = "rich") sc.Scenario.sc_queries in
  match
    Effectiveness.score_zql db Options.default ~name:"rich" ~zql:rich.Scenario.qc_zql
  with
  | Error e -> Alcotest.failf "rich query scoring failed: %s" e
  | Ok s ->
    Alcotest.(check bool)
      (Printf.sprintf "at least 8 alternatives (got %d)" s.Effectiveness.s_alternatives)
      true
      (s.Effectiveness.s_alternatives >= 8);
    Alcotest.(check int) "all alternatives agree on rows" 0 s.Effectiveness.s_row_mismatches;
    Alcotest.(check bool) "regret >= 1" true (s.Effectiveness.s_regret >= 1.0)

let test_effectiveness_control_regret () =
  let sc = Scenario.generate ~seed ~index:0 () in
  match Effectiveness.negative_control sc with
  | Error e -> Alcotest.failf "control scoring failed: %s" e
  | Ok s ->
    Alcotest.(check bool)
      (Printf.sprintf "corrupted stats show regret > 1 (got %g)" s.Effectiveness.s_regret)
      true
      (s.Effectiveness.s_regret > 1.0);
    Alcotest.(check bool) "rank worse than 1" true (s.Effectiveness.s_rank > 1)

let test_effectiveness_report () =
  let sc = Scenario.generate ~seed ~index:1 () in
  let r = Effectiveness.run sc in
  Alcotest.(check bool) "scored every query" true
    (List.length r.Effectiveness.e_scores = List.length sc.Scenario.sc_queries);
  List.iter
    (fun (s : Effectiveness.score) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s regret >= 1" s.Effectiveness.s_query)
        true
        (s.Effectiveness.s_regret >= 1.0);
      Alcotest.(check int)
        (Printf.sprintf "%s row mismatches" s.Effectiveness.s_query)
        0 s.Effectiveness.s_row_mismatches)
    r.Effectiveness.e_scores

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "scenario"
    [ ( "determinism",
        [ Alcotest.test_case "same seed, same digest" `Quick test_same_seed_same_digest;
          Alcotest.test_case "different seed, different digest" `Quick
            test_different_seed_different_digest;
          Alcotest.test_case "prefix stability" `Quick test_prefix_stability;
          Alcotest.test_case "build_db deterministic" `Quick test_build_db_deterministic;
          Alcotest.test_case "pinned scenario digests" `Quick test_pinned_scenario_digests;
          Alcotest.test_case "pinned datagen digest" `Quick test_pinned_datagen_digest ] );
      ( "generation",
        [ Alcotest.test_case "queries compile and round-trip" `Quick
            test_queries_compile_and_roundtrip;
          Alcotest.test_case "query mix" `Quick test_query_mix ] );
      ( "differential",
        [ Alcotest.test_case "scenarios pass all variants" `Slow test_differential_passes;
          Alcotest.test_case "shrink machinery" `Quick test_shrink_machinery ] );
      ( "effectiveness",
        [ Alcotest.test_case "rich query samples >= 8 plans" `Quick
            test_effectiveness_rich_alternatives;
          Alcotest.test_case "corrupted stats show regret" `Quick
            test_effectiveness_control_regret;
          Alcotest.test_case "full report" `Slow test_effectiveness_report ] ) ]
