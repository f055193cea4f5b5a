(* The Volcano engine is generic; exercise it through a deliberately tiny
   model (string leaves, one binary concatenation operator, a boolean
   "sorted" physical property) independent of the OODB instantiation. *)

module Toy = struct
  module Op = struct
    type t = Leaf of string | Cat

    let arity = function Leaf _ -> 0 | Cat -> 2

    let equal = ( = )

    let hash = Hashtbl.hash

    let pp ppf = function
      | Leaf s -> Format.fprintf ppf "leaf:%s" s
      | Cat -> Format.pp_print_string ppf "cat"
  end

  module Alg = struct
    type t = Scan of string | Sorted_scan of string | Concat | Sorter

    let pp ppf = function
      | Scan s -> Format.fprintf ppf "scan %s" s
      | Sorted_scan s -> Format.fprintf ppf "sorted-scan %s" s
      | Concat -> Format.pp_print_string ppf "concat"
      | Sorter -> Format.pp_print_string ppf "sorter"
  end

  module Lprop = struct
    type t = int (* size *)

    let pp = Format.pp_print_int
  end

  module Typ = struct
    type t = unit (* the toy model carries no schema to type *)

    let equal () () = true

    let pp ppf () = Format.pp_print_string ppf "()"
  end

  module Pprop = struct
    type t = bool (* sorted? *)

    let equal = Bool.equal

    let hash = Hashtbl.hash

    let satisfies ~delivered ~required = delivered || not required

    let pp ppf b = Format.pp_print_string ppf (if b then "sorted" else "any")
  end

  module Cost = struct
    type t = float

    let zero = 0.0

    let add = ( +. )

    let sub = ( -. )

    let slack = 1e-9

    let compare = Float.compare

    let infinite = Float.infinity

    let pp = Format.pp_print_float
  end
end

module E = Volcano.Make (Toy)

let derive_lprop op inputs =
  match (op : Toy.Op.t) with
  | Toy.Op.Leaf s -> String.length s
  | Toy.Op.Cat -> List.fold_left ( + ) 0 inputs

(* cat (a, b) => cat (b, a) *)
let commute =
  { E.t_name = "commute";
    t_apply =
      (fun _ctx m ->
        match m.E.mop, m.E.minputs with
        | Toy.Op.Cat, [ l; r ] -> [ E.Node (Toy.Op.Cat, [ E.Ref r; E.Ref l ]) ]
        | _ -> []) }

(* cat (a, b) => a : a lossy rule used to exercise group merging *)
let left_wins =
  { E.t_name = "left-wins";
    t_apply =
      (fun _ctx m ->
        match m.E.mop, m.E.minputs with
        | Toy.Op.Cat, [ l; _ ] -> [ E.Ref l ]
        | _ -> []) }

let scan_cost = 10.0

let sorted_scan_cost = 25.0

let sorter_cost = 8.0

let impl_leaf =
  { E.i_name = "impl-leaf";
    i_promise = 10;
    i_match =
      (fun _ctx m ->
        match m.E.mop with
        | Toy.Op.Leaf s ->
          Some
            (fun ~required ->
              ignore required;
              [ { E.cand_alg = Toy.Alg.Scan s;
                  cand_inputs = [];
                  cand_cost = scan_cost;
                  cand_delivers = false };
                { E.cand_alg = Toy.Alg.Sorted_scan s;
                  cand_inputs = [];
                  cand_cost = sorted_scan_cost;
                  cand_delivers = true } ])
        | Toy.Op.Cat -> None) }

let impl_cat =
  { E.i_name = "impl-cat";
    i_promise = 5;
    i_match =
      (fun _ctx m ->
        match m.E.mop, m.E.minputs with
        | Toy.Op.Cat, [ l; r ] ->
          (* concatenation preserves nothing: it cannot deliver sorted *)
          Some
            (fun ~required ->
              ignore required;
              [ { E.cand_alg = Toy.Alg.Concat;
                  cand_inputs = [ (l, false); (r, false) ];
                  cand_cost = 1.0;
                  cand_delivers = false } ])
        | _ -> None) }

let sorter =
  { E.e_name = "sorter";
    e_apply =
      (fun _ctx ~required _g ->
        if required then [ (Toy.Alg.Sorter, false, sorter_cost) ] else []) }

let spec ?(trules = [ commute ]) () =
  { E.derive_lprop;
    transformations = trules;
    implementations = [ impl_leaf; impl_cat ];
    enforcers = [ sorter ] }

let leaf s = E.Expr (Toy.Op.Leaf s, [])

let cat a b = E.Expr (Toy.Op.Cat, [ a; b ])

let plan_cost r = match r.E.plan with Some p -> p.E.cost | None -> nan


(* ------------------------------------------------------------------ *)

let test_leaf_plan () =
  let r = E.run (spec ()) (leaf "ab") ~required:false in
  Alcotest.(check (float 1e-9)) "cheapest scan" scan_cost (plan_cost r);
  Alcotest.(check int) "one group" 1 r.E.stats.E.groups

let test_required_property () =
  (* sorted required: sorted-scan (25) loses to scan+sorter (18) *)
  let r = E.run (spec ()) (leaf "ab") ~required:true in
  Alcotest.(check (float 1e-9)) "scan + sorter" (scan_cost +. sorter_cost) (plan_cost r);
  match r.E.plan with
  | Some { E.alg = Toy.Alg.Sorter; children = [ { E.alg = Toy.Alg.Scan _; _ } ]; _ } -> ()
  | _ -> Alcotest.fail "expected sorter over scan"

let test_enforcer_vs_native () =
  (* with the enforcer disabled, the sorted scan is the only way *)
  let r = E.run ~disabled:[ "sorter" ] (spec ()) (leaf "ab") ~required:true in
  Alcotest.(check (float 1e-9)) "sorted scan" sorted_scan_cost (plan_cost r)

let test_unachievable_property () =
  let r =
    E.run ~disabled:[ "sorter" ]
      { (spec ()) with E.implementations = [ impl_cat;
          { impl_leaf with E.i_match = (fun ctx m ->
                Option.map (fun cost ~required ->
                    List.filter (fun c -> c.E.cand_alg <> Toy.Alg.Sorted_scan "ab")
                      (cost ~required))
                  (impl_leaf.E.i_match ctx m)) } ] }
      (leaf "ab") ~required:true
  in
  Alcotest.(check bool) "no plan" true (r.E.plan = None)

let test_closure_dedup () =
  let r = E.run (spec ()) (cat (leaf "a") (leaf "b")) ~required:false in
  (* groups: a, b, root; root holds cat(a,b) and cat(b,a) only *)
  Alcotest.(check int) "groups" 3 r.E.stats.E.groups;
  Alcotest.(check int) "mexprs" 4 r.E.stats.E.mexprs;
  Alcotest.(check int) "commute fired once per orientation" 1 r.E.stats.E.trule_fired

let test_closure_terminates_nested () =
  let e = cat (cat (leaf "a") (leaf "b")) (cat (leaf "c") (leaf "d")) in
  let r = E.run (spec ()) e ~required:false in
  Alcotest.(check bool) "terminates with finite memo" true (r.E.stats.E.mexprs < 50)

let test_group_merge () =
  (* left-wins asserts cat(a,b) == a: the root group merges with a's *)
  let r = E.run (spec ~trules:[ left_wins ] ()) (cat (leaf "aa") (leaf "b")) ~required:false in
  (* the root group now contains the leaf: a bare scan is a valid plan *)
  Alcotest.(check (float 1e-9)) "scan through merged group" scan_cost (plan_cost r);
  match r.E.plan with
  | Some { E.alg = Toy.Alg.Scan "aa"; _ } -> ()
  | _ -> Alcotest.fail "expected scan of aa after merge"

let test_disabled_rule () =
  let r = E.run ~disabled:[ "commute" ] (spec ()) (cat (leaf "a") (leaf "b")) ~required:false in
  Alcotest.(check int) "no commuted form" 3 r.E.stats.E.mexprs

let test_pruning_equivalence () =
  let e = cat (cat (leaf "a") (leaf "b")) (cat (leaf "c") (leaf "d")) in
  let with_pruning = E.run ~pruning:true (spec ()) e ~required:true in
  let without = E.run ~pruning:false (spec ()) e ~required:true in
  Alcotest.(check (float 1e-9)) "same optimum" (plan_cost without) (plan_cost with_pruning)

let test_memo_hits () =
  (* shared sub-expression: the same leaf appears twice *)
  let e = cat (leaf "a") (leaf "a") in
  let r = E.run (spec ()) e ~required:false in
  Alcotest.(check int) "leaf group shared" 2 r.E.stats.E.groups;
  Alcotest.(check bool) "physical memo reused" true (r.E.stats.E.phys_memo_hits > 0)

let test_lprops () =
  let e = cat (leaf "abc") (leaf "de") in
  let r = E.run (spec ()) e ~required:false in
  Alcotest.(check int) "derived size" 5 (E.group_lprop r.E.ctx r.E.root)

let test_memo_dump () =
  let r = E.run (spec ()) (cat (leaf "a") (leaf "b")) ~required:false in
  let s = Format.asprintf "%a" E.pp_memo r.E.ctx in
  Alcotest.(check bool) "dump mentions cat" true (String.length s > 0)

let test_packed_ids () =
  List.iter
    (fun k ->
      let id = Volcano.Id.make k 37 in
      Alcotest.(check int) "index survives the round trip" 37 (Volcano.Id.to_idx id);
      Alcotest.(check bool) "kind survives the round trip" true (Volcano.Id.kind_of id = k))
    [ Volcano.Id.Group; Volcano.Id.Mexpr; Volcano.Id.Phys ];
  (* ids of distinct kinds never collide, whatever the index *)
  Alcotest.(check bool) "kind tag separates equal indexes" false
    (Volcano.Id.make Volcano.Id.Group 5 = Volcano.Id.make Volcano.Id.Mexpr 5);
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Volcano.Id.make: index overflow") (fun () ->
      ignore (Volcano.Id.make Volcano.Id.Group (-1)));
  Alcotest.check_raises "overflowing index rejected"
    (Invalid_argument "Volcano.Id.make: index overflow") (fun () ->
      ignore (Volcano.Id.make Volcano.Id.Group max_int))

let test_rule_counters_sorted () =
  let e = cat (cat (leaf "a") (leaf "b")) (cat (leaf "c") (leaf "d")) in
  let r = E.run (spec ()) e ~required:true in
  let counters = E.rule_counters r.E.ctx in
  let names = List.map (fun (n, _, _) -> n) counters in
  Alcotest.(check (list string)) "sorted by rule name" (List.sort String.compare names) names;
  Alcotest.(check bool) "all exercised rules present" true
    (List.for_all (fun n -> List.mem n names) [ "commute"; "impl-leaf"; "impl-cat"; "sorter" ]);
  (* determinism: an identical run reports identical counters *)
  let r' = E.run (spec ()) e ~required:true in
  Alcotest.(check bool) "bit-identical across identical runs" true
    (counters = E.rule_counters r'.E.ctx)

let test_guided_equivalence () =
  (* guided search (promise-ordered rules, cost-sorted candidates,
     bound-propagating subgoals) must return a winner with exactly the
     exhaustive winner's cost, for every required-property goal *)
  let exprs =
    [ leaf "ab";
      cat (leaf "a") (leaf "b");
      cat (cat (leaf "a") (leaf "b")) (cat (leaf "c") (leaf "d"));
      cat (leaf "a") (cat (leaf "bc") (leaf "d")) ]
  in
  List.iter
    (fun required ->
      List.iter
        (fun e ->
          let exhaustive = E.run ~guided:false (spec ()) e ~required in
          let guided = E.run ~guided:true (spec ()) e ~required in
          Alcotest.(check (float 0.0)) "identical winner cost" (plan_cost exhaustive)
            (plan_cost guided);
          Alcotest.(check bool) "guided expands no more candidates" true
            (guided.E.stats.E.candidates <= exhaustive.E.stats.E.candidates))
        exprs)
    [ false; true ]

let test_guided_prunes_subgoals () =
  (* with a finite initial limit the guided search's bound propagation
     refuses dominated subgoals outright *)
  let e = cat (cat (leaf "a") (leaf "b")) (cat (leaf "c") (leaf "d")) in
  let exhaustive = E.run ~guided:false (spec ()) e ~required:true in
  let guided = E.run ~guided:true (spec ()) e ~required:true in
  Alcotest.(check (float 0.0)) "identical winner cost" (plan_cost exhaustive) (plan_cost guided);
  Alcotest.(check bool) "guided records pruning work" true
    (guided.E.stats.E.pruned_candidates + guided.E.stats.E.pruned_subgoals > 0)

(* A merge can kill a multi-expression still waiting in the closure's
   queue. Here cat(b,a) and cat(a,b) start in separate groups; when
   commute on cat(a,b) finds cat(b,a), their groups merge, so
   cat(cat(b,a),c) becomes a duplicate of cat(cat(a,b),c) and dies in
   the queue. The closure still expands it when it is popped: skipping
   such entries leaves groups, mexprs and plans as they are here, but on
   the benchmark's join templates it changes the order in which
   multi-expressions are created, and with it their ids, the lineage and
   memo exports. *)
let test_dead_queued_mexpr () =
  let e =
    cat (cat (cat (leaf "a") (leaf "b")) (leaf "c")) (cat (cat (leaf "b") (leaf "a")) (leaf "c"))
  in
  let r = E.run (spec ()) e ~required:false in
  let s = r.E.stats in
  Alcotest.(check int) "groups" 6 s.E.groups;
  Alcotest.(check int) "mexprs" 8 s.E.mexprs;
  Alcotest.(check int) "trules fired" 1 s.E.trule_fired;
  Alcotest.(check int) "every pop is a closure step" 9 s.E.closure_steps;
  Alcotest.(check int) "the dead entry is tried too" 9 s.E.trule_tried;
  Alcotest.(check (list (triple string int int))) "per-rule tried and fired"
    [ ("commute", 9, 1); ("impl-cat", 8, 5); ("impl-leaf", 8, 6); ("sorter", 6, 0) ]
    (E.rule_counters r.E.ctx);
  Alcotest.(check (float 0.0)) "winner cost" 65.0 (plan_cost r)

(* Implementation-rule matches are kept per multi-expression and memo
   generation. Root B's closure merges leaf "x" into root A's input
   group (alias rewrites x to y, which A already holds), so cat-x, which
   needs an x on its left, newly applies to A's cat. Re-solving A after
   registering B must see it, exactly as if B had been registered before
   A was first solved. *)
let test_rematch_after_register () =
  let alias =
    { E.t_name = "alias";
      t_apply =
        (fun _ctx m ->
          match m.E.mop with
          | Toy.Op.Leaf "x" -> [ E.Node (Toy.Op.Leaf "y", []) ]
          | _ -> []) }
  in
  let cat_x =
    { E.i_name = "cat-x";
      i_promise = 5;
      i_match =
        (fun ctx m ->
          match m.E.mop, m.E.minputs with
          | Toy.Op.Cat, [ l; r ] ->
            if List.exists (fun m' -> m'.E.mop = Toy.Op.Leaf "x") (E.group_exprs ctx l) then
              Some
                (fun ~required:_ ->
                  [ { E.cand_alg = Toy.Alg.Concat;
                      cand_inputs = [ (l, false); (r, false) ];
                      cand_cost = 0.25;
                      cand_delivers = false } ])
            else None
          | _ -> None) }
  in
  let spec =
    { (spec ~trules:[ alias ] ()) with
      E.implementations = [ impl_leaf; impl_cat; cat_x ] }
  in
  let a = cat (leaf "y") (leaf "z") and b = leaf "x" in
  let solved_then_registered =
    let s = E.session spec in
    let ra = E.register s a in
    let before = E.solve s ra ~required:false in
    Alcotest.(check (float 0.0)) "before B: scan, scan, concat" 21.0 (plan_cost before);
    ignore (E.register s b);
    E.solve s ra ~required:false
  in
  let registered_first =
    let s = E.session spec in
    let ra = E.register s a in
    ignore (E.register s b);
    E.solve s ra ~required:false
  in
  Alcotest.(check (float 0.0)) "cat-x applies after B" 20.25 (plan_cost registered_first);
  Alcotest.(check (float 0.0)) "re-solve sees the new match" (plan_cost registered_first)
    (plan_cost solved_then_registered);
  Alcotest.(check bool) "same plan" true
    (solved_then_registered.E.plan = registered_first.E.plan)

let () =
  Alcotest.run "volcano"
    [ ( "search",
        [ Alcotest.test_case "leaf plan" `Quick test_leaf_plan;
          Alcotest.test_case "goal-directed property search" `Quick test_required_property;
          Alcotest.test_case "enforcer vs native" `Quick test_enforcer_vs_native;
          Alcotest.test_case "unachievable property" `Quick test_unachievable_property;
          Alcotest.test_case "pruning equivalence" `Quick test_pruning_equivalence;
          Alcotest.test_case "physical memoization" `Quick test_memo_hits ] );
      ( "memo",
        [ Alcotest.test_case "closure dedup" `Quick test_closure_dedup;
          Alcotest.test_case "nested closure terminates" `Quick test_closure_terminates_nested;
          Alcotest.test_case "group merging" `Quick test_group_merge;
          Alcotest.test_case "rule disabling" `Quick test_disabled_rule;
          Alcotest.test_case "logical property derivation" `Quick test_lprops;
          Alcotest.test_case "memo dump" `Quick test_memo_dump;
          Alcotest.test_case "merge kills a queued mexpr" `Quick test_dead_queued_mexpr ] );
      ( "session",
        [ Alcotest.test_case "re-solve after register re-matches rules" `Quick
            test_rematch_after_register ] );
      ( "representation",
        [ Alcotest.test_case "packed id round trips" `Quick test_packed_ids;
          Alcotest.test_case "rule counters sorted & deterministic" `Quick
            test_rule_counters_sorted ] );
      ( "guided",
        [ Alcotest.test_case "guided == exhaustive winner cost" `Quick test_guided_equivalence;
          Alcotest.test_case "guided prunes dominated work" `Quick test_guided_prunes_subgoals ] ) ]
