module Value = Oodb_storage.Value
module Logical = Oodb_algebra.Logical
module OC = Oodb_catalog.Open_oodb_catalog
module Q = Oodb_workloads.Queries

let cat = OC.catalog_with_indexes ()

let compile s =
  match Zql.Simplify.compile cat s with
  | Ok q -> q
  | Error m -> Alcotest.failf "unexpected ZQL error: %s" m

let expect_error s =
  match Zql.Simplify.compile cat s with
  | Ok _ -> Alcotest.failf "expected error for %s" s
  | Error m -> m

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Lexer                                                                *)

let test_lexer_basic () =
  match Zql.Lexer.tokenize {| SELECT e.name FROM e IN Employees WHERE e.age >= 32 |} with
  | Error m -> Alcotest.fail m
  | Ok tokens ->
    Alcotest.(check int) "token count" 15 (List.length tokens);
    Alcotest.(check bool) "keywords case-insensitive" true
      (match Zql.Lexer.tokenize "select from where" with
      | Ok [ Zql.Lexer.SELECT; Zql.Lexer.FROM; Zql.Lexer.WHERE; Zql.Lexer.EOF ] -> true
      | _ -> false)

let test_lexer_literals () =
  match Zql.Lexer.tokenize {| 42 4.5 "hi \"there\"" true false |} with
  | Ok [ Zql.Lexer.INT 42; Zql.Lexer.FLOAT 4.5; Zql.Lexer.STRING "hi \"there\"";
         Zql.Lexer.TRUE; Zql.Lexer.FALSE; Zql.Lexer.EOF ] -> ()
  | Ok _ -> Alcotest.fail "unexpected tokens"
  | Error m -> Alcotest.fail m

let test_lexer_dot_vs_float () =
  (* [e.age] must lex as ident dot ident, [1.5] as a float *)
  match Zql.Lexer.tokenize "e.age 1.5 t.x" with
  | Ok [ Zql.Lexer.IDENT "e"; Zql.Lexer.DOT; Zql.Lexer.IDENT "age"; Zql.Lexer.FLOAT 1.5;
         Zql.Lexer.IDENT "t"; Zql.Lexer.DOT; Zql.Lexer.IDENT "x"; Zql.Lexer.EOF ] -> ()
  | Ok _ -> Alcotest.fail "unexpected tokens"
  | Error m -> Alcotest.fail m

let test_lexer_comments () =
  match Zql.Lexer.tokenize "SELECT -- a comment\n1" with
  | Ok [ Zql.Lexer.SELECT; Zql.Lexer.INT 1; Zql.Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "comment not skipped"

let test_lexer_errors () =
  (match Zql.Lexer.tokenize "a = b" with
  | Error m -> Alcotest.(check bool) "single = rejected" true (contains m "==")
  | Ok _ -> Alcotest.fail "single = should be rejected");
  match Zql.Lexer.tokenize "\"unterminated" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unterminated string"

(* A digit run past [max_int] is a located lexer error, reported where
   the literal starts; [Simplify.compile_ordered] returns it as an
   [Error] instead of raising [Failure "int_of_string"]. *)
let test_lexer_int_range () =
  (match Zql.Lexer.tokenize (string_of_int max_int) with
  | Ok [ Zql.Lexer.INT i; Zql.Lexer.EOF ] -> Alcotest.(check int) "max_int lexes" max_int i
  | _ -> Alcotest.fail "max_int did not lex as one integer");
  (match Zql.Lexer.tokenize "4611686018427387904" with
  | Error m ->
    Alcotest.(check string) "max_int + 1 is located"
      "line 1, column 1: integer literal 4611686018427387904 is out of range" m
  | Ok _ -> Alcotest.fail "max_int + 1 must not lex");
  match
    Zql.Simplify.compile_ordered cat
      "SELECT t FROM t IN Tasks WHERE t.time == 99999999999999999999"
  with
  | Error m ->
    Alcotest.(check string) "compile reports the literal's start"
      "parse error: line 1, column 42: integer literal 99999999999999999999 is out of range" m
  | Ok _ -> Alcotest.fail "an out-of-range literal must not compile"

(* Every token's line and column on a multi-line text: a newline in
   whitespace, a [--] comment line, a newline inside a string literal
   and a [\r\n]. The values were recorded with the lexer that rescanned
   the input from offset 0 for each token. *)
let test_lexer_locations () =
  let text =
    "SELECT e.name,\n  e.age FROM e IN Employees\r\n-- only Fred\nWHERE e.name == \"Fr\ned\" && e.age >= 3.5"
  in
  let located =
    match Zql.Lexer.tokenize_pos text with
    | Ok tokens ->
      List.map
        (fun (t, (l : Zql.Loc.t)) -> (Zql.Lexer.token_name t, l.Zql.Loc.line, l.Zql.Loc.col))
        tokens
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check (list (triple string int int)))
    "token locations"
    [ ("SELECT", 1, 1); ("identifier e", 1, 8); (".", 1, 9); ("identifier name", 1, 10);
      (",", 1, 14); ("identifier e", 2, 3); (".", 2, 4); ("identifier age", 2, 5);
      ("FROM", 2, 9); ("identifier e", 2, 14); ("IN", 2, 16); ("identifier Employees", 2, 19);
      ("WHERE", 4, 1); ("identifier e", 4, 7); (".", 4, 8); ("identifier name", 4, 9);
      ("==", 4, 14); ("\"Fr\\ned\"", 4, 17); ("&&", 5, 5); ("identifier e", 5, 8); (".", 5, 9);
      ("identifier age", 5, 10); (">=", 5, 14); ("3.5", 5, 17); ("end of input", 5, 20) ]
    located;
  match Zql.Lexer.tokenize "SELECT e\nFROM e IN Employees\nWHERE e.age == 1 & e.age == 2" with
  | Error m -> Alcotest.(check string) "lone & located" "line 3, column 18: expected &&" m
  | Ok _ -> Alcotest.fail "a lone & should be rejected"

(* ------------------------------------------------------------------ *)
(* Parser                                                               *)

let test_parse_figure1 () =
  let q =
    Zql.Parser.parse_exn
      {| SELECT Newobject(e.name, d.name)
         FROM Employee e IN Employees, Department d IN Departments
         WHERE d.floor == 3 && e.age >= 32 && e.last_raise >= date(1992,1,1)
            && e.dept == d; |}
  in
  Alcotest.(check int) "two ranges" 2 (List.length q.Zql.Ast.q_from);
  Alcotest.(check int) "two projections" 2 (List.length q.Zql.Ast.q_select);
  match q.Zql.Ast.q_where with
  | Some c -> Alcotest.(check int) "four conjuncts" 4 (List.length (Zql.Ast.conjuncts c))
  | None -> Alcotest.fail "missing where"

let test_parse_exists () =
  let q =
    Zql.Parser.parse_exn
      {| SELECT * FROM t IN Tasks
         WHERE t.time == 100 && EXISTS (SELECT m FROM m IN t.team_members WHERE m.name == "Fred") |}
  in
  match q.Zql.Ast.q_where with
  | Some c -> (
    match Zql.Ast.conjuncts c with
    | [ Zql.Ast.Cmp _; Zql.Ast.Exists sub ] ->
      Alcotest.(check bool) "set-path range" true
        (match (List.hd sub.Zql.Ast.q_from).Zql.Ast.r_src with
        | Zql.Ast.Set_path _ -> true
        | Zql.Ast.Coll _ -> false)
    | _ -> Alcotest.fail "wrong conjunct structure")
  | None -> Alcotest.fail "missing where"

let test_parse_roundtrip_pp () =
  let text = {| SELECT c.name AS n FROM c IN Cities WHERE c.population >= 5 |} in
  let q = Zql.Parser.parse_exn text in
  let printed = Format.asprintf "%a" Zql.Ast.pp_query q in
  let q2 = Zql.Parser.parse_exn printed in
  (* token locations differ between the two inputs, so compare the
     printed forms, which elide them *)
  Alcotest.(check string) "pp . parse . pp = pp" printed (Format.asprintf "%a" Zql.Ast.pp_query q2)

(* Property over the scenario generator's query population: printing a
   generated AST with [to_zql] and parsing the text back simplifies to
   the same logical expression as the AST itself. Parsed trees carry
   real source locations while generated ones use [Loc.none], so the
   comparison is after simplification, where locations are gone. *)
let test_to_zql_roundtrip_generated () =
  for index = 0 to 11 do
    let sc = Oodb_scenario.Scenario.generate ~seed:7 ~index () in
    let gcat = Oodb_scenario.Scenario.base_catalog sc.Oodb_scenario.Scenario.sc_schema in
    List.iter
      (fun (qc : Oodb_scenario.Scenario.query_case) ->
        let printed = Zql.Ast.to_zql qc.Oodb_scenario.Scenario.qc_ast in
        match Zql.Parser.parse printed with
        | Error e ->
          Alcotest.failf "scenario %d %s: printed text does not parse: %s\n%s" index
            qc.Oodb_scenario.Scenario.qc_name e printed
        | Ok ast -> (
          match
            Zql.Simplify.query gcat ast,
            Zql.Simplify.query gcat qc.Oodb_scenario.Scenario.qc_ast
          with
          | Ok parsed, Ok direct ->
            if parsed <> direct then
              Alcotest.failf "scenario %d %s: parse (to_zql q) simplifies differently\n%s"
                index qc.Oodb_scenario.Scenario.qc_name printed
          | Error e, _ | _, Error e ->
            Alcotest.failf "scenario %d %s: does not simplify: %s\n%s" index
              qc.Oodb_scenario.Scenario.qc_name e printed))
      sc.Oodb_scenario.Scenario.sc_queries
  done

let test_located_errors () =
  let err s =
    match Zql.Simplify.compile cat s with
    | Error m -> m
    | Ok _ -> Alcotest.failf "expected error: %s" s
  in
  Alcotest.(check bool) "attribute error names line 2" true
    (contains (err "SELECT * FROM c IN Cities\nWHERE c.nope == 1") "line 2, column 7");
  Alcotest.(check bool) "unknown collection located" true
    (contains (err {| SELECT * FROM x IN Nowhere |}) "line 1, column 16");
  Alcotest.(check bool) "incomparable operands located" true
    (contains (err {| SELECT * FROM c IN Cities WHERE c.name == 3 |}) "column 34");
  match Zql.Parser.parse "SELECT x FROM a IN B extra" with
  | Error m -> Alcotest.(check bool) "parse error located" true (contains m "column 22")
  | Ok _ -> Alcotest.fail "expected parse error"

(* A SELECT list that names one output column twice would compile to a
   Project the typing hook rejects inside [Optimizer.optimize]; the
   simplifier reports it at the repeated item instead, whether the name
   comes from the path or from [AS]. *)
let test_repeated_output_column () =
  let err s =
    match Zql.Simplify.compile_ordered cat s with
    | Error m -> m
    | Ok _ -> Alcotest.failf "expected error: %s" s
  in
  Alcotest.(check string) "repeated path"
    "line 1, column 16: duplicate output column e.name"
    (err "SELECT e.name, e.name FROM e IN Employees");
  Alcotest.(check string) "repeated AS name"
    "line 1, column 21: duplicate output column x"
    (err "SELECT e.name AS x, e.age AS x FROM e IN Employees");
  match Zql.Simplify.compile_ordered cat "SELECT e.name, e.name AS n FROM e IN Employees" with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "one path under two names must compile: %s" m

let test_parse_errors () =
  let bad s =
    match Zql.Parser.parse s with
    | Ok _ -> Alcotest.failf "expected parse error: %s" s
    | Error _ -> ()
  in
  bad "SELECT";
  bad "SELECT x FROM";
  bad "SELECT x FROM a IN B WHERE";
  bad "SELECT x FROM a IN B WHERE x ==";
  bad "FROM a IN B";
  bad "SELECT x FROM a IN B extra"

(* ------------------------------------------------------------------ *)
(* Simplification                                                       *)

let test_simplify_q2_exact () =
  let q = compile {| SELECT * FROM City c IN Cities WHERE c.mayor.name == "Joe" |} in
  Alcotest.(check bool) "equals hand-built Q2" true (Logical.equal q Q.q2)

let test_simplify_fig2_exact () =
  let q =
    compile
      {| SELECT * FROM City c IN Cities
         WHERE c.mayor.name == c.country.president.name |}
  in
  (* same operators; Mat order may differ, so compare the optimizer's view *)
  Alcotest.(check (list string)) "scope" (Logical.scope Q.fig2) (Logical.scope q)

let test_simplify_paths_shared () =
  (* two predicates through the same link: only one Mat *)
  let q =
    compile
      {| SELECT * FROM e IN Employees
         WHERE e.dept.floor == 3 && e.dept.name == "dept_1" |}
  in
  let rec count_mats (t : Logical.t) =
    (match t.Logical.op with Logical.Mat _ -> 1 | _ -> 0)
    + List.fold_left (fun acc i -> acc + count_mats i) 0 t.Logical.inputs
  in
  Alcotest.(check int) "one Mat" 1 (count_mats q)

let test_simplify_set_range () =
  let q =
    compile
      {| SELECT * FROM t IN Tasks, m IN t.team_members WHERE m.name == "Fred" |}
  in
  let s = Logical.to_string q in
  Alcotest.(check bool) "unnest present" true (contains s "Unnest t.team_members");
  Alcotest.(check bool) "mat-ref present" true (contains s "Mat &m: m")

let test_simplify_exists_matches_range_form () =
  let via_exists =
    compile
      {| SELECT * FROM t IN Tasks
         WHERE t.time == 100 && EXISTS (SELECT m FROM m IN t.team_members WHERE m.name == "Fred") |}
  in
  let via_range =
    compile
      {| SELECT * FROM t IN Tasks, m IN t.team_members
         WHERE t.time == 100 && m.name == "Fred" |}
  in
  (* both produce unnest + mat + conjunctive select; atom order may vary *)
  Alcotest.(check (list string)) "same scope" (Logical.scope via_range) (Logical.scope via_exists)

let test_simplify_multi_range_join () =
  let q = compile {| SELECT * FROM e IN Employees, d IN Departments WHERE e.dept == d |} in
  let rec has_join (t : Logical.t) =
    (match t.Logical.op with Logical.Join _ -> true | _ -> false)
    || List.exists has_join t.Logical.inputs
  in
  Alcotest.(check bool) "join introduced" true (has_join q)

let test_simplify_projection_names () =
  let q = compile {| SELECT e.name AS who, e.age FROM e IN Employees |} in
  match q.Logical.op with
  | Logical.Project [ a; b ] ->
    Alcotest.(check string) "alias" "who" a.Logical.p_name;
    Alcotest.(check string) "default name" "e.age" b.Logical.p_name
  | _ -> Alcotest.fail "expected projection at root"

let test_simplify_errors () =
  Alcotest.(check bool) "unknown collection" true
    (contains (expect_error {| SELECT * FROM x IN Nowhere |}) "Nowhere");
  Alcotest.(check bool) "unknown variable" true
    (contains (expect_error {| SELECT * FROM c IN Cities WHERE z.name == "x" |}) "z");
  Alcotest.(check bool) "unknown attribute" true
    (contains (expect_error {| SELECT * FROM c IN Cities WHERE c.nope == 1 |}) "nope");
  Alcotest.(check bool) "type mismatch" true
    (contains (expect_error {| SELECT * FROM c IN Cities WHERE c.name == 3 |}) "incomparable");
  Alcotest.(check bool) "class annotation" true
    (contains (expect_error {| SELECT * FROM Person c IN Cities |}) "City");
  Alcotest.(check bool) "set in scalar position" true
    (contains (expect_error {| SELECT * FROM t IN Tasks WHERE t.team_members == 3 |}) "set");
  Alcotest.(check bool) "duplicate variable" true
    (contains (expect_error {| SELECT * FROM c IN Cities, c IN Cities |}) "twice");
  Alcotest.(check bool) "set range first" true
    (contains (expect_error {| SELECT * FROM m IN t.team_members |}) "first")

let test_order_by () =
  (match Zql.Simplify.compile_ordered cat
           {| SELECT c.name FROM c IN Cities WHERE c.population >= 5 ORDER BY c.name |} with
  | Ok c ->
    Alcotest.(check bool) "field order" true
      (c.Zql.Simplify.c_order = Some ("c", Some "name"))
  | Error m -> Alcotest.fail m);
  (match Zql.Simplify.compile_ordered cat {| SELECT * FROM c IN Cities ORDER BY c |} with
  | Ok c ->
    Alcotest.(check bool) "identity order" true (c.Zql.Simplify.c_order = Some ("c", None))
  | Error m -> Alcotest.fail m);
  (match Zql.Simplify.compile_ordered cat
           {| SELECT * FROM c IN Cities ORDER BY c.mayor.age |} with
  | Ok c ->
    Alcotest.(check bool) "path order resolves through Mat" true
      (c.Zql.Simplify.c_order = Some ("c.mayor", Some "age"))
  | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "set-valued rejected" true
    (contains (expect_error {| SELECT * FROM t IN Tasks ORDER BY t.team_members |}) "set");
  Alcotest.(check bool) "projected-away binding rejected" true
    (contains
       (expect_error {| SELECT t.name FROM t IN Tasks, m IN t.team_members ORDER BY m |})
       "not in the query result")

let test_order_by_executes_sorted () =
  let db = Lazy.force Helpers.small_db in
  let dcat = Oodb_exec.Db.catalog db in
  match
    Zql.Simplify.compile_ordered dcat {| SELECT n.name FROM n IN Countries ORDER BY n.name |}
  with
  | Error m -> Alcotest.fail m
  | Ok c ->
    let required =
      { Open_oodb.Physprop.empty with
        Open_oodb.Physprop.order =
          (match c.Zql.Simplify.c_order with
          | Some (b, f) -> Some { Open_oodb.Physprop.ord_binding = b; ord_field = f }
          | None -> None) }
    in
    let plan =
      Open_oodb.Optimizer.plan_exn
        (Open_oodb.Optimizer.optimize ~required dcat c.Zql.Simplify.c_logical)
    in
    let rows = Oodb_exec.Executor.run db plan in
    let names = List.map (fun row -> List.assoc "n.name" row) rows in
    Alcotest.(check bool) "sorted" true
      (names = List.sort Oodb_storage.Value.compare names && List.length names > 2)

let test_compile_optimize_execute () =
  (* the full front-to-back pipeline on a small database *)
  let db = Lazy.force Helpers.small_db in
  let dcat = Oodb_exec.Db.catalog db in
  match Zql.Simplify.compile dcat {| SELECT c.name FROM c IN Cities WHERE c.mayor.name == "Joe" |} with
  | Error m -> Alcotest.fail m
  | Ok q ->
    let plan = Open_oodb.Optimizer.plan_exn (Open_oodb.Optimizer.optimize dcat q) in
    let rows = Oodb_exec.Executor.run db plan in
    List.iter
      (fun row -> Alcotest.(check int) "one column" 1 (List.length row))
      rows

let () =
  Alcotest.run "zql"
    [ ( "lexer",
        [ Alcotest.test_case "basics" `Quick test_lexer_basic;
          Alcotest.test_case "literals" `Quick test_lexer_literals;
          Alcotest.test_case "dot vs float" `Quick test_lexer_dot_vs_float;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "out-of-range integer" `Quick test_lexer_int_range;
          Alcotest.test_case "token locations" `Quick test_lexer_locations ] );
      ( "parser",
        [ Alcotest.test_case "paper figure 1" `Quick test_parse_figure1;
          Alcotest.test_case "EXISTS subquery" `Quick test_parse_exists;
          Alcotest.test_case "pp round trip" `Quick test_parse_roundtrip_pp;
          Alcotest.test_case "to_zql round trip over generated queries" `Quick
            test_to_zql_roundtrip_generated;
          Alcotest.test_case "syntax errors" `Quick test_parse_errors ] );
      ( "simplify",
        [ Alcotest.test_case "query 2 exact" `Quick test_simplify_q2_exact;
          Alcotest.test_case "figure 2 scope" `Quick test_simplify_fig2_exact;
          Alcotest.test_case "shared path prefixes" `Quick test_simplify_paths_shared;
          Alcotest.test_case "set-valued range" `Quick test_simplify_set_range;
          Alcotest.test_case "EXISTS equals explicit range" `Quick
            test_simplify_exists_matches_range_form;
          Alcotest.test_case "multi-range join" `Quick test_simplify_multi_range_join;
          Alcotest.test_case "projection naming" `Quick test_simplify_projection_names;
          Alcotest.test_case "error reporting" `Quick test_simplify_errors;
          Alcotest.test_case "located errors" `Quick test_located_errors;
          Alcotest.test_case "repeated output column" `Quick test_repeated_output_column;
          Alcotest.test_case "ORDER BY" `Quick test_order_by;
          Alcotest.test_case "ORDER BY executes sorted" `Quick test_order_by_executes_sorted;
          Alcotest.test_case "compile-optimize-execute" `Quick test_compile_optimize_execute ] )
    ]
