module Json = Oodb_util.Json
module Catalog = Oodb_catalog.Catalog
module Config = Oodb_cost.Config
module Fbkey = Oodb_cost.Fbkey
module Lprops = Oodb_cost.Lprops
module Pred = Oodb_algebra.Pred
module Physical = Open_oodb.Physical

type obs = { o_value : float; o_count : int; o_qerror : float }

type t = {
  fb_dir : string option;
  fb_epoch : int;
  fb_digest : string;
  sel : (string, obs) Hashtbl.t;
  card : (string, obs) Hashtbl.t;
  fanout : (string, obs) Hashtbl.t;
}

let size t = Hashtbl.length t.sel + Hashtbl.length t.card + Hashtbl.length t.fanout

let file t =
  match t.fb_dir with
  | None -> None
  | Some dir ->
    Some (Filename.concat dir (Printf.sprintf "fb-%d-%s.json" t.fb_epoch t.fb_digest))

(* The bounds every stored value keeps, whether observed in this
   process or loaded from a file: a selectivity lies in [[1e-6, 1]], a
   cardinality or fanout is non-negative. *)
let clamp_sel v = Float.min 1.0 (Float.max 1e-6 v)

let clamp_nonneg v = Float.max 0. v

(* ------------------------------------------------------------------ *)
(* Serialization                                                        *)

let obs_json o =
  Json.Obj
    [ ("value", Json.float o.o_value);
      ("count", Json.Int o.o_count);
      ("qerror", Json.float o.o_qerror) ]

let tbl_json tbl =
  Json.Obj
    (Hashtbl.fold (fun k o acc -> (k, obs_json o) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let contents t =
  let rows name tbl = Hashtbl.fold (fun k o acc -> (name, k, o) :: acc) tbl [] in
  List.sort compare (rows "sel" t.sel @ rows "card" t.card @ rows "fanout" t.fanout)

let to_json t =
  Json.Obj
    [ ("epoch", Json.Int t.fb_epoch);
      ("digest", Json.String t.fb_digest);
      ("observations", Json.Int (size t));
      ("sel", tbl_json t.sel);
      ("card", tbl_json t.card);
      ("fanout", tbl_json t.fanout) ]

let obs_of_json j =
  match
    ( Option.bind (Json.member "value" j) Json.to_float,
      Option.bind (Json.member "count" j) Json.to_int,
      Option.bind (Json.member "qerror" j) Json.to_float )
  with
  | Some v, Some c, Some q -> Some { o_value = v; o_count = c; o_qerror = q }
  | _ -> None

(* A file is read back through the same clamps, and an observation whose
   value or q-error is not finite is dropped: an infinite cardinality
   would price every plan at infinity, and the search would find none. *)
let fill_tbl clamp tbl j =
  match j with
  | Some (Json.Obj fields) ->
    List.iter
      (fun (k, v) ->
        match obs_of_json v with
        | Some o when Float.is_finite o.o_value && Float.is_finite o.o_qerror ->
          Hashtbl.replace tbl k { o with o_value = clamp o.o_value }
        | Some _ | None -> ())
      fields
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                            *)

let load_file t path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error _ -> ()
  | contents -> (
    match Json.of_string contents with
    | Error _ -> ()
    | Ok j ->
      (* The filename already scopes (epoch, digest); the body's copy is
         informational. *)
      fill_tbl clamp_sel t.sel (Json.member "sel" j);
      fill_tbl clamp_nonneg t.card (Json.member "card" j);
      fill_tbl clamp_nonneg t.fanout (Json.member "fanout" j))

let create ?dir cat =
  let t =
    { fb_dir = dir;
      fb_epoch = Catalog.epoch cat;
      fb_digest = Digest.to_hex (Catalog.digest cat);
      sel = Hashtbl.create 32;
      card = Hashtbl.create 16;
      fanout = Hashtbl.create 16 }
  in
  (match file t with
  | Some path when Sys.file_exists path -> load_file t path
  | _ -> ());
  t

let env_var = "OODB_FEEDBACK_DIR"

let of_env cat =
  match Sys.getenv_opt env_var with
  | Some dir when dir <> "" -> Some (create ~dir cat)
  | _ -> None

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let save t =
  match file t with
  | None -> ()
  | Some path ->
    Option.iter mkdir_p t.fb_dir;
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (Json.to_string (to_json t)));
    Sys.rename tmp path

let reset t =
  Hashtbl.reset t.sel;
  Hashtbl.reset t.card;
  Hashtbl.reset t.fanout

let clear_dir dir =
  if not (Sys.file_exists dir) then 0
  else
    Array.fold_left
      (fun n f ->
        if
          String.length f > 3
          && String.sub f 0 3 = "fb-"
          && Filename.check_suffix f ".json"
        then begin
          (try Sys.remove (Filename.concat dir f) with Sys_error _ -> ());
          n + 1
        end
        else n)
      0 (Sys.readdir dir)

(* ------------------------------------------------------------------ *)
(* Observation merge                                                    *)

(* Exponential moving average with alpha 1/2: repeated observations of a
   drifting statistic converge geometrically on the latest runs instead
   of being pinned by history, and a single outlier decays just as
   fast. *)
let merge tbl key ~value ~qerror =
  match Hashtbl.find_opt tbl key with
  | None -> Hashtbl.replace tbl key { o_value = value; o_count = 1; o_qerror = qerror }
  | Some o ->
    Hashtbl.replace tbl key
      { o_value = (0.5 *. o.o_value) +. (0.5 *. value);
        o_count = o.o_count + 1;
        o_qerror = Float.max o.o_qerror qerror }

let observe_sel t key ~value ~qerror = merge t.sel key ~value:(clamp_sel value) ~qerror

let observe_card t coll ~value ~qerror = merge t.card coll ~value:(clamp_nonneg value) ~qerror

let observe_fanout t key ~value ~qerror = merge t.fanout key ~value:(clamp_nonneg value) ~qerror

(* ------------------------------------------------------------------ *)
(* Installing into a cost configuration                                 *)

let hook t : Config.feedback =
  let fb = Config.feedback_create () in
  Hashtbl.iter (fun k o -> Hashtbl.replace fb.Config.fb_sel k o.o_value) t.sel;
  Hashtbl.iter (fun k o -> Hashtbl.replace fb.Config.fb_card k o.o_value) t.card;
  Hashtbl.iter (fun k o -> Hashtbl.replace fb.Config.fb_fanout k o.o_value) t.fanout;
  fb

let install t opts = Open_oodb.Options.with_feedback (hook t) opts

(* ------------------------------------------------------------------ *)
(* Harvesting a profiled execution                                      *)

(* Per-ATOM observations only, never whole conjunctions: the memo
   consistency invariant needs sel({a1,a2}) = sel(a1) * sel(a2), which
   only holds if feedback overrides individual atoms. Multi-atom
   predicates are skipped rather than attributed to one atom. *)
let harvest ?registry t config cat (root : Profile.node) =
  let recorded = ref 0 in
  let record kind key ~value ~qerror =
    (match kind with
    | `Sel -> observe_sel t key ~value ~qerror
    | `Card -> observe_card t key ~value ~qerror
    | `Fanout -> observe_fanout t key ~value ~qerror);
    incr recorded;
    Option.iter (fun reg -> Metrics.observe_hist reg "feedback/qerror" qerror) registry
  in
  let ratio out inn = float_of_int out /. float_of_int inn in
  let rec walk (n : Profile.node) : Lprops.t =
    let inputs = List.map walk n.Profile.children in
    let env = Cardest.node_lprops config cat n.Profile.alg inputs in
    let child_rows i =
      match List.nth_opt n.Profile.children i with
      | Some c -> c.Profile.actual_rows
      | None -> 0
    in
    let sel_atom a ~inn =
      if inn > 0 then
        match Fbkey.atom ~env a with
        | Some key ->
          record `Sel key ~value:(ratio n.Profile.actual_rows inn) ~qerror:n.Profile.q_error
        | None -> ()
    in
    (match n.Profile.alg with
    | Physical.File_scan { coll; _ } ->
      record `Card coll
        ~value:(float_of_int n.Profile.actual_rows)
        ~qerror:n.Profile.q_error
    | Physical.Filter [ a ] -> sel_atom a ~inn:(child_rows 0)
    | Physical.Hash_join [ a ] -> sel_atom a ~inn:(child_rows 0 * child_rows 1)
    | Physical.Merge_join { key_l; key_r; residual = [] } ->
      sel_atom (Pred.atom Pred.Eq key_l key_r) ~inn:(child_rows 0 * child_rows 1)
    | Physical.Pointer_join { residual = [ a ]; _ } -> sel_atom a ~inn:(child_rows 0)
    | Physical.Alg_unnest { src; field; _ } -> (
      let inn = child_rows 0 in
      if inn > 0 then
        match Lprops.class_of env src with
        | Some cls ->
          record `Fanout (Fbkey.fanout ~cls ~field)
            ~value:(ratio n.Profile.actual_rows inn)
            ~qerror:n.Profile.q_error
        | None -> ())
    | _ -> ());
    env
  in
  ignore (walk root);
  !recorded

(* ------------------------------------------------------------------ *)
(* Plan quality                                                         *)

let plan_quality (root : Profile.node) =
  let rec fold (mx, sum, n) (node : Profile.node) =
    List.fold_left fold
      (Float.max mx node.Profile.q_error, sum +. node.Profile.q_error, n + 1)
      node.Profile.children
  in
  let mx, sum, n = fold (1.0, 0., 0) root in
  (mx, if n = 0 then 1.0 else sum /. float_of_int n)
