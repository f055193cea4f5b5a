type event = {
  ev_ph : [ `B | `E ];
  ev_name : string;
  ev_cat : string;
  ev_ts : float;
  ev_args : (string * Json.t) list;
}

type t = {
  clock : unit -> float;
  epoch : float;
  mutable events : event list; (* newest first *)
  mutable count : int;
  mutable stack : string list; (* names of currently open spans *)
}

let create ?(clock = Clock.now) () =
  { clock; epoch = clock (); events = []; count = 0; stack = [] }

let clock t = t.clock

let depth t = List.length t.stack

let count t = t.count

let push t ev =
  t.events <- ev :: t.events;
  t.count <- t.count + 1

let begin_ ?(args = []) ?ts t ~cat name =
  let ts = match ts with Some ts -> ts | None -> t.clock () in
  t.stack <- name :: t.stack;
  push t { ev_ph = `B; ev_name = name; ev_cat = cat; ev_ts = ts -. t.epoch; ev_args = args }

let end_ ?(args = []) ?ts t name =
  (match t.stack with
  | top :: rest when String.equal top name -> t.stack <- rest
  | top :: _ ->
    invalid_arg
      (Printf.sprintf "Span.end_: closing %S but innermost open span is %S" name top)
  | [] -> invalid_arg (Printf.sprintf "Span.end_: closing %S but no span is open" name));
  let ts = match ts with Some ts -> ts | None -> t.clock () in
  (* The category is filled in at export time from the matching B event
     (the stack discipline guarantees there is exactly one). *)
  push t { ev_ph = `E; ev_name = name; ev_cat = ""; ev_ts = ts -. t.epoch; ev_args = args }

let with_span ?args spans ~cat name f =
  match spans with
  | None -> f ()
  | Some t ->
    begin_ ?args t ~cat name;
    (match f () with
    | v ->
      end_ t name;
      v
    | exception e ->
      end_ t name;
      raise e)

let events t = List.rev t.events

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export (loadable in ui.perfetto.dev)              *)

(* E events inherit the matching B event's category so every record is
   self-describing; timestamps are microseconds from the collector's
   creation. *)
let to_chrome ?(pid = 1) ?(tid = 1) t =
  let cat_stack = ref [] in
  let trace_events =
    List.map
      (fun ev ->
        let cat =
          match ev.ev_ph with
          | `B ->
            cat_stack := ev.ev_cat :: !cat_stack;
            ev.ev_cat
          | `E -> (
            match !cat_stack with
            | c :: rest ->
              cat_stack := rest;
              c
            | [] -> ev.ev_cat)
        in
        let base =
          [ ("name", Json.String ev.ev_name);
            ("cat", Json.String cat);
            ("ph", Json.String (match ev.ev_ph with `B -> "B" | `E -> "E"));
            ("ts", Json.float (ev.ev_ts *. 1e6));
            ("pid", Json.Int pid);
            ("tid", Json.Int tid) ]
        in
        Json.Obj
          (if ev.ev_args = [] then base else base @ [ ("args", Json.Obj ev.ev_args) ]))
      (events t)
  in
  Json.Obj
    [ ("displayTimeUnit", Json.String "ms"); ("traceEvents", Json.List trace_events) ]

(* ------------------------------------------------------------------ *)
(* Well-formedness (for tests and report validation)                    *)

let well_formed t =
  if t.stack <> [] then
    Error (Printf.sprintf "%d span(s) still open: %s" (depth t) (String.concat ", " t.stack))
  else
    let rec check stack = function
      | [] -> if stack = [] then Ok () else Error "unclosed B events"
      | ev :: rest -> (
        match ev.ev_ph with
        | `B -> check (ev.ev_name :: stack) rest
        | `E -> (
          match stack with
          | top :: stack' when String.equal top ev.ev_name -> check stack' rest
          | top :: _ ->
            Error (Printf.sprintf "E %S closes B %S" ev.ev_name top)
          | [] -> Error (Printf.sprintf "E %S without a prior B" ev.ev_name)))
    in
    check [] (events t)
