(* Runtime cardinality feedback: observed statistics the estimator
   consults before the synthetic model. Keys are canonical and
   class-based (see Fbkey), so the override does not depend on which
   memo form a predicate appears in — the memo consistency checker
   re-derives with the same config and must agree. Kept as plain
   hashtables (no closures) so a config carrying feedback stays
   marshalable and structurally comparable. [fb_hits] counts applied
   overrides; samplers take deltas around a derivation to tag nodes
   with their estimate's source. *)
type feedback = {
  fb_sel : (string, float) Hashtbl.t;  (** atom key -> observed selectivity *)
  fb_card : (string, float) Hashtbl.t;  (** collection -> observed cardinality *)
  fb_fanout : (string, float) Hashtbl.t;  (** class.field -> observed set fanout *)
  mutable fb_hits : int;
}

type t = {
  page_bytes : int;
  seq_io : float;
  rand_io : float;
  asm_io_floor : float;
  assembly_window : int;
  cpu_tuple : float;
  cpu_call : float;
  batch_size : int;
  cpu_pred : float;
  cpu_hash : float;
  memory_bytes : int;
  buffer_pages : int;
  default_selectivity : float;
  range_selectivity : float;
  feedback : feedback option;
}

let feedback_create () =
  { fb_sel = Hashtbl.create 16;
    fb_card = Hashtbl.create 16;
    fb_fanout = Hashtbl.create 16;
    fb_hits = 0 }

let fb_find table t key =
  match t.feedback with
  | None -> None
  | Some fb -> (
    match Hashtbl.find_opt (table fb) key with
    | Some v ->
      fb.fb_hits <- fb.fb_hits + 1;
      Some v
    | None -> None)

let fb_sel_find t key = fb_find (fun fb -> fb.fb_sel) t key

let fb_card_find t key = fb_find (fun fb -> fb.fb_card) t key

let fb_fanout_find t key = fb_find (fun fb -> fb.fb_fanout) t key

let fb_hits t = match t.feedback with None -> 0 | Some fb -> fb.fb_hits

(* The execution engine's default batch size, shared with the cost
   model so anticipated CPU tracks the engine actually run. *)
let default_batch_size =
  match Sys.getenv_opt "OODB_BATCH_SIZE" with
  | None | Some "" -> 64
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 1 -> n
    | _ -> invalid_arg (Printf.sprintf "OODB_BATCH_SIZE: not a positive integer: %s" s))

(* Calibrated against the paper's DECstation 5000/125 era: ~20 ms
   sequential and ~30 ms random page access, ~0.5 ms of CPU per tuple per
   operator on the 25 MHz processor. With these constants the anticipated
   times for the paper's queries land within a small factor of Tables 2-3
   (see EXPERIMENTS.md). *)
let default =
  { page_bytes = 4096;
    seq_io = 0.020;
    rand_io = 0.030;
    asm_io_floor = 0.008;
    assembly_window = 16;
    cpu_tuple = 5.0e-4;
    cpu_call = 2.0e-4;
    batch_size = default_batch_size;
    cpu_pred = 1.0e-4;
    cpu_hash = 5.0e-4;
    memory_bytes = 4 * 1024 * 1024;
    buffer_pages = 1024;
    default_selectivity = 0.10;
    range_selectivity = 0.33;
    feedback = None }

(* [cpu_tuple] is calibrated for the tuple-at-a-time protocol: each
   tuple pays the operator's work plus one closure call per operator
   boundary. Batching spreads the boundary share [cpu_call] over
   [batch_size] tuples; at batch size 1 this is exactly [cpu_tuple]. *)
let per_tuple t =
  let b = float_of_int (max 1 t.batch_size) in
  t.cpu_tuple -. t.cpu_call +. (t.cpu_call /. b)

let assembly_io t ~window =
  let window = max 1 window in
  t.asm_io_floor +. ((t.rand_io -. t.asm_io_floor) /. float_of_int window)

let pages t ~bytes = Float.max 1.0 (Float.ceil (bytes /. float_of_int t.page_bytes))
