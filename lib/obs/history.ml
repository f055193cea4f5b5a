module Json = Oodb_util.Json

type record = {
  sha : string;
  date : string;
  workload : string;
  seed : int;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * (float * string)) list;
}

(* ------------------------------------------------------------------ *)
(* Records                                                             *)

let to_json r =
  Json.Obj
    [ ("sha", Json.String r.sha);
      ("date", Json.String r.date);
      ("workload", Json.String r.workload);
      ("seed", Json.Int r.seed);
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, (v, unit)) ->
               (name, Json.Obj [ ("value", Json.float v); ("unit", Json.String unit) ]))
             r.metrics) ) ]

let ( let* ) = Result.bind

let field name conv j =
  match Json.member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
    match conv v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let to_string_opt = function Json.String s -> Some s | _ -> None

let to_bool_opt = function Json.Bool b -> Some b | _ -> None

let to_obj_opt = function Json.Obj kvs -> Some kvs | _ -> None

let rec all_ok = function
  | [] -> Ok []
  | Error e :: _ -> Error e
  | Ok x :: tl ->
    let* rest = all_ok tl in
    Ok (x :: rest)

(* The benchmark's result object: correct, attempted, failed, metrics. *)
let result_of_json j =
  let* correct = field "correct" to_bool_opt j in
  let* attempted = field "attempted" Json.to_int j in
  let* failed = field "failed" Json.to_int j in
  let* metrics = field "metrics" to_obj_opt j in
  let* metrics =
    all_ok
      (List.map
         (fun (name, m) ->
           let* v = field "value" Json.to_float m in
           let* unit = field "unit" to_string_opt m in
           Ok (name, (v, unit)))
         metrics)
  in
  let metrics = List.sort (fun (a, _) (b, _) -> String.compare a b) metrics in
  Ok (correct, attempted, failed, metrics)

let of_json j =
  let* sha = field "sha" to_string_opt j in
  let* date = field "date" to_string_opt j in
  let* workload = field "workload" to_string_opt j in
  let* seed = field "seed" Json.to_int j in
  let* correct, attempted, failed, metrics = result_of_json j in
  Ok { sha; date; workload; seed; correct; attempted; failed; metrics }

let of_capture ~sha ~date text =
  let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text) in
  let* workload, seed =
    match
      List.find_map
        (fun l -> Scanf.sscanf_opt l "traffic: workload=%s seed=%d" (fun w s -> (w, s)))
        lines
    with
    | Some ws -> Ok ws
    | None -> Error "no \"traffic: workload=W seed=N\" line"
  in
  let* last =
    match List.rev lines with [] -> Error "empty capture" | l :: _ -> Ok l
  in
  let* correct, attempted, failed, metrics =
    match Json.of_string last with
    | Ok j -> result_of_json j
    | Error e -> Error ("the last line is not a benchmark result: " ^ e)
  in
  Ok { sha; date; workload; seed; correct; attempted; failed; metrics }

let load path =
  if not (Sys.file_exists path) then Error (Printf.sprintf "%s: no such file" path)
  else
    In_channel.with_open_text path (fun ic ->
        let rec loop lineno acc =
          match In_channel.input_line ic with
          | None -> Ok (List.rev acc)
          | Some line when String.trim line = "" -> loop (lineno + 1) acc
          | Some line -> (
            match Result.bind (Json.of_string line) of_json with
            | Ok r -> loop (lineno + 1) (r :: acc)
            | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e))
        in
        loop 1 [])

(* ------------------------------------------------------------------ *)
(* The gate                                                            *)

type bound = { higher_is_better : bool; bound : float }

let bounds path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text ->
    (let* j = Json.of_string text in
     let* entries = field "end_to_end" Json.to_list j in
     all_ok
       (List.map
          (fun e ->
            let* name = field "name" to_string_opt e in
            let* better = field "better" to_string_opt e in
            let* bound = field "bound" Json.to_float e in
            match better with
            | "higher" -> Ok (name, { higher_is_better = true; bound })
            | "lower" -> Ok (name, { higher_is_better = false; bound })
            | b -> Error (Printf.sprintf "metric %s: better %S" name b))
          entries))
    |> Result.map_error (fun e -> path ^ ": " ^ e)

type limit = Report_only | At_least of float | At_most of float

type delta = {
  d_workload : string;
  d_metric : string;
  d_unit : string;
  d_old_sha : string;
  d_old : float;
  d_new : float;
  d_old_runs : int;
  d_new_runs : int;
  d_limit : limit;
}

type comparison = {
  c_deltas : delta list;
  c_incorrect : string list;
  c_missing : string list;
  c_unmatched : (string * string) list;
}

let dedup xs =
  List.rev (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

(* The newest record of a workload that satisfies [p]. *)
let newest p workload records =
  List.fold_left (fun acc r -> if r.workload = workload && p r then Some r else acc) None records

(* The records of [workload] that satisfy [p] and were made at the
   commit of the newest of them, oldest first. *)
let newest_commit p workload records =
  match newest p workload records with
  | None -> []
  | Some n -> List.filter (fun r -> r.workload = workload && p r && r.sha = n.sha) records

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let failed_share r =
  if r.attempted = 0 then 0. else float_of_int r.failed /. float_of_int r.attempted

let compare ~bounds ~baseline ~candidate =
  let pairs =
    dedup (List.concat_map (fun r -> List.map (fun (m, _) -> (r.workload, m)) r.metrics) candidate)
  in
  let carries m r = List.mem_assoc m r.metrics in
  let metric_deltas, unmatched =
    List.partition_map
      (fun (w, m) ->
        let values rs = List.map (fun r -> fst (List.assoc m r.metrics)) rs in
        match newest_commit (carries m) w candidate, newest_commit (carries m) w baseline with
        | (_ :: _ as ns), (o :: _ as os) ->
          let old_v = median (values os) and new_v = median (values ns) in
          let limit =
            match List.assoc_opt m bounds with
            | None -> Report_only
            | Some b when b.higher_is_better -> At_least (old_v *. (1. -. b.bound))
            | Some b -> At_most (old_v *. (1. +. b.bound))
          in
          Left
            { d_workload = w; d_metric = m; d_unit = snd (List.assoc m o.metrics);
              d_old_sha = o.sha; d_old = old_v; d_new = new_v; d_old_runs = List.length os;
              d_new_runs = List.length ns; d_limit = limit }
        | _ -> Right (w, m))
      pairs
  in
  let share_deltas =
    List.filter_map
      (fun n ->
        Option.map
          (fun o ->
            let old_v = failed_share o and new_v = failed_share n in
            { d_workload = n.workload; d_metric = "failed_share"; d_unit = "ratio";
              d_old_sha = o.sha; d_old = old_v; d_new = new_v; d_old_runs = 1; d_new_runs = 1;
              d_limit = At_most old_v })
          (newest (fun _ -> true) n.workload baseline))
      candidate
  in
  let workloads rs = dedup (List.map (fun r -> r.workload) rs) in
  { c_deltas = metric_deltas @ share_deltas;
    c_incorrect = workloads (List.filter (fun r -> not r.correct) candidate);
    c_missing =
      List.filter (fun w -> not (List.mem w (workloads candidate))) (workloads baseline);
    c_unmatched = unmatched }

let delta_regressed d =
  match d.d_limit with
  | Report_only -> false
  | At_least l -> d.d_new < l
  | At_most l -> d.d_new > l

let regressed c = c.c_incorrect <> [] || List.exists delta_regressed c.c_deltas

let pp_comparison ppf c =
  Format.fprintf ppf "%-12s %-36s %-14s %-6s %14s -> %-14s %-6s %s@." "workload" "metric"
    "baseline" "runs" "old" "new" "unit" "limit";
  List.iter
    (fun d ->
      Format.fprintf ppf "%-12s %-36s %-14s %-6s %14.6g -> %-14.6g %-6s %s%s@." d.d_workload
        d.d_metric d.d_old_sha
        (Printf.sprintf "%d/%d" d.d_old_runs d.d_new_runs)
        d.d_old d.d_new d.d_unit
        (match d.d_limit with
        | Report_only -> "report only"
        | At_least l -> Printf.sprintf ">= %.6g" l
        | At_most l -> Printf.sprintf "<= %.6g" l)
        (if delta_regressed d then "  REGRESSION" else ""))
    c.c_deltas;
  List.iter (fun w -> Format.fprintf ppf "%s: wrong answers  REGRESSION@." w) c.c_incorrect;
  List.iter (fun w -> Format.fprintf ppf "%s: no candidate record@." w) c.c_missing;
  List.iter (fun (w, m) -> Format.fprintf ppf "%s %s: no baseline@." w m) c.c_unmatched;
  Format.fprintf ppf "RESULT: %s@." (if regressed c then "regression detected" else "ok")
