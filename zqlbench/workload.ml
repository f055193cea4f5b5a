(* The three workloads as seeded streams of ZQL texts and statistics
   writes. Every stream is a pure function of the seed, so a run replays
   the same operations each time it is given the same seed.

   Each workload mixes its templates in a fixed rotation and lets the
   seed choose only constants and order. A run is cut by time, not by
   operation count, so a seed-chosen template mix would make throughput
   depend on the seed; the rotation keeps every prefix of the stream
   balanced. *)

module Prng = Oodb_util.Prng

type query = {
  text : string;
  template : string;
  reduced_check : bool;
      (** checked on the reduced-scale database: the reference
          interpreter's nested loops over the full database are too slow
          for this text (multi-range joins, and ad-hoc unnests, which are
          checked on every query) *)
}

type op = Query of query | Stat_write of { cls : string; field : string }

type t = {
  name : string;
  warm_texts : string list;  (** optimized once per set-up, in order *)
  fixed : query list;  (** the workload's own text set; empty when unbounded *)
  next : unit -> op;
  templates : string list;
  window : int;
      (** operations per throughput window, so that every window carries
          the same mix: whole template rotations, or on [lookup-hot] one
          statistics-write period (the same mix to within one query per
          template) *)
}

let names = [ "lookup-hot"; "adhoc-join"; "report-scan" ]

let q template ?(reduced_check = false) fmt =
  Printf.ksprintf (fun text -> { text; template; reduced_check }) fmt

(* Draw [n] distinct values from [draw]. *)
let distinct n draw =
  let seen = Hashtbl.create n in
  let rec go acc k =
    if k = n then List.rev acc
    else
      let v = draw () in
      if Hashtbl.mem seen v then go acc k
      else begin
        Hashtbl.add seen v ();
        go (v :: acc) (k + 1)
      end
  in
  go [] 0

(* {1 lookup-hot} *)

let lookup_templates = [ "mayor-name"; "employee-name"; "task-time"; "paper-q4" ]

let per_template = 50

(* Query 4 with the paper's constants; first in its template, so it is
   that template's hottest text. *)
let paper_q4 =
  q "paper-q4"
    {|SELECT t FROM t IN Tasks WHERE t.time == 100 && EXISTS (SELECT m FROM m IN t.team_members WHERE m.name == "Fred")|}

let lookup_texts rng =
  let person () = match Prng.int rng 5000 with 0 -> "Joe" | k -> Printf.sprintf "pname_%d" k in
  let employee () = match Prng.int rng 100 with 0 -> "Fred" | k -> Printf.sprintf "ename_%d" k in
  let mayors =
    distinct per_template person
    |> List.map (q "mayor-name" {|SELECT c.name FROM c IN Cities WHERE c.mayor.name == "%s"|})
  in
  let employees =
    distinct per_template (fun () -> (employee (), Prng.int_in rng 20 65))
    |> List.map (fun (n, a) ->
           q "employee-name" {|SELECT e.name, e.age FROM e IN Employees WHERE e.name == "%s" && e.age == %d|} n a)
  in
  let tasks =
    distinct per_template (fun () -> Prng.int_in rng 1 1000)
    |> List.map (q "task-time" {|SELECT t.name FROM t IN Tasks WHERE t.time == %d|})
  in
  let q4s =
    distinct (per_template - 1) (fun () -> (Prng.int_in rng 1 1000, employee ()))
    |> List.filter (fun (t, n) -> not (t = 100 && n = "Fred"))
    |> List.map (fun (t, n) ->
           q "paper-q4"
             {|SELECT t FROM t IN Tasks WHERE t.time == %d && EXISTS (SELECT m FROM m IN t.team_members WHERE m.name == "%s")|}
             t n)
  in
  [ mayors; employees; tasks; paper_q4 :: q4s ]

(* The text set is the same under every seed; the seed drives only the
   draws. Seeded constants put different texts at the head of the Zipf
   law, and the head alone carries a fifth of a template's traffic. *)
let lookup_catalogue_seed = 12

(* Templates take turns in a fixed 12-slot rotation: mayor and task
   lookups (~0.06 ms each) four slots each, employee lookups (~0.45 ms)
   three, Query 4 (~0.2 ms) one. The median then falls three quarters
   of the way into the fast cluster and p90 three fifths of the way into
   the employee cluster. A median near the edge of a cluster jumps
   between clusters from run to run. *)
let lookup_rotation = [| 0; 2; 1; 0; 2; 1; 0; 2; 1; 0; 2; 3 |]

(* One statistics write per [write_period] operations. Re-recording an
   attribute's measured distinct count leaves every estimate unchanged
   but bumps the catalog epoch, so each cached plan is re-optimized once
   on its next use. *)
let write_period = 2000

let written_stats =
  [| ("Person", "name"); ("Person", "age"); ("Department", "floor"); ("City", "name");
     ("Job", "name") |]

let lookup_hot seed =
  let groups = lookup_texts (Prng.create lookup_catalogue_seed) in
  let by_template = Array.of_list (List.map Array.of_list groups) in
  let n = per_template in
  (* cumulative Zipf(s = 1) weights over ranks 1..n *)
  let cdf = Array.make n 0. in
  let total = ref 0. in
  Array.iteri
    (fun i _ ->
      total := !total +. (1. /. float_of_int (i + 1));
      cdf.(i) <- !total)
    cdf;
  (* a text's rank is its position in its template's list *)
  let rng = Prng.create seed in
  let sample texts =
    let u = Prng.float rng cdf.(Array.length texts - 1) in
    let lo = ref 0 and hi = ref (Array.length texts - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) <= u then lo := mid + 1 else hi := mid
    done;
    texts.(!lo)
  in
  let count = ref 0 and queries = ref 0 and writes = ref 0 in
  let next () =
    incr count;
    if !count mod write_period = 0 then begin
      let cls, field = written_stats.(!writes mod Array.length written_stats) in
      incr writes;
      Stat_write { cls; field }
    end
    else begin
      let g = lookup_rotation.(!queries mod Array.length lookup_rotation) in
      incr queries;
      Query (sample by_template.(g))
    end
  in
  let texts = List.concat groups in
  { name = "lookup-hot";
    warm_texts = List.map (fun q -> q.text) texts;
    fixed = texts;
    next;
    templates = lookup_templates;
    window = write_period }

(* {1 report-scan} *)

let report_templates = [ "q1-location"; "fig1-floor-join"; "salary-by-floor"; "team-age-unnest" ]

let report_texts () =
  let floors = List.init 10 (fun i -> i + 1) in
  [ List.map
      (q "q1-location"
         {|SELECT e.name, e.job.name, e.dept.name FROM e IN Employees WHERE e.dept.plant.location == "%s"|})
      ("Dallas" :: List.init 9 (fun i -> Printf.sprintf "loc_%d" (i + 1)));
    List.map
      (q "fig1-floor-join" ~reduced_check:true
         {|SELECT e.name, d.name FROM e IN Employees, d IN Departments WHERE e.dept == d && d.floor == %d|})
      floors;
    List.map
      (q "salary-by-floor" {|SELECT e.name, e.salary FROM e IN Employees WHERE e.dept.floor == %d|})
      floors;
    List.map
      (q "team-age-unnest"
         {|SELECT t.name, m.name FROM t IN Tasks, m IN t.team_members WHERE m.age > %d|})
      (List.init 10 (fun i -> 20 + (4 * i))) ]

(* Query 1 over Dallas: 5,000 rows at scale 1 (the paper's answer). *)
let paper_q1 = List.hd (List.hd (report_texts ()))

(* Round-robin over templates, each template's texts in a seeded order
   that is reshuffled on every pass. *)
let rotation rng groups =
  let groups = Array.of_list (List.map Array.of_list groups) in
  let pos = Array.make (Array.length groups) 0 in
  let turn = ref 0 in
  fun () ->
    let g = !turn mod Array.length groups in
    incr turn;
    let texts = groups.(g) in
    if pos.(g) = 0 then Prng.shuffle rng texts;
    let x = texts.(pos.(g)) in
    pos.(g) <- (pos.(g) + 1) mod Array.length texts;
    x

(* Query 1, the paper's central query, takes two of every five slots.
   With four equal shares the median latency would fall on the boundary
   between two templates' latency clusters and jump between them from run
   to run; with these shares both reported percentiles fall inside one
   template's cluster. *)
let report_scan seed =
  let rng = Prng.create seed in
  let groups = report_texts () in
  let next = rotation rng (groups @ [ List.hd groups ]) in
  { name = "report-scan";
    warm_texts = List.concat_map (List.map (fun q -> q.text)) groups;
    fixed = List.concat groups;
    next = (fun () -> Query (next ()));
    templates = report_templates;
    window = 2 * (List.length report_templates + 1) }

(* {1 adhoc-join} *)

let adhoc_templates =
  [ "emp-dept-job"; "city-person-country"; "emp-dept"; "city-mat-chain"; "task-unnest" ]

(* Three or four conjuncts each. A fifth conjunct on the three-range
   join made it 3-4x slower to optimize than every other template and
   its latency the least repeatable figure of the benchmark.

   Constants come from small domains that exist at every scale (floors
   1-10, job levels 0-9, ages 20-99), so the same text is meaningful on
   the reduced-scale reference database. *)
let adhoc_query rng = function
  | 0 ->
    q "emp-dept-job" ~reduced_check:true
      {|SELECT e.name, d.name, j.name FROM e IN Employees, d IN Departments, j IN Jobs WHERE e.dept == d && e.job == j && d.floor == %d && j.level == %d|}
      (Prng.int_in rng 1 10) (Prng.int_in rng 0 9)
  | 1 ->
    q "city-person-country" ~reduced_check:true
      {|SELECT c.name, p.name, n.name FROM c IN Cities, p IN Persons, n IN Countries WHERE c.mayor == p && c.country == n && p.age > %d && c.population < %d|}
      (Prng.int_in rng 20 95) (1000 * Prng.int_in rng 1 977)
  | 2 ->
    q "emp-dept" ~reduced_check:true
      {|SELECT e.name, d.name FROM e IN Employees, d IN Departments WHERE e.dept == d && d.floor == %d && e.salary > %d.0|}
      (Prng.int_in rng 1 10) (20_000 + (75 * Prng.int rng 1000))
  | 3 ->
    q "city-mat-chain"
      {|SELECT c.name, c.mayor.name FROM c IN Cities WHERE c.mayor.age == %d && c.country.capital.population > %d && c.population < %d|}
      (Prng.int_in rng 20 99) (10_000 * Prng.int_in rng 1 160) (1000 * Prng.int_in rng 1 977)
  | _ ->
    q "task-unnest" ~reduced_check:true
      {|SELECT t.name, m.name FROM t IN Tasks, m IN t.team_members WHERE t.time < %d && m.age == %d && m.dept.floor == %d|}
      (Prng.int_in rng 1 1000) (Prng.int_in rng 20 65) (Prng.int_in rng 1 10)

(* The cache is pre-filled with the other two workloads' texts (a warm
   server), so the ad-hoc stream's insertions evict from the start. *)
let adhoc_join seed =
  let rng = Prng.create seed in
  let turn = ref 0 in
  let next () =
    let t = !turn mod List.length adhoc_templates in
    incr turn;
    Query (adhoc_query rng t)
  in
  let lookup = lookup_hot seed and report = report_scan seed in
  { name = "adhoc-join";
    warm_texts = lookup.warm_texts @ report.warm_texts;
    fixed = [];
    next;
    templates = adhoc_templates;
    window = 2 * List.length adhoc_templates }

let make name seed =
  match name with
  | "lookup-hot" -> lookup_hot seed
  | "adhoc-join" -> adhoc_join seed
  | "report-scan" -> report_scan seed
  | _ -> invalid_arg ("unknown workload " ^ name)
