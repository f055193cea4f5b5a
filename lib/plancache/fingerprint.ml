module Logical = Oodb_algebra.Logical
module Pred = Oodb_algebra.Pred
module Value = Oodb_storage.Value
module Catalog = Oodb_catalog.Catalog
module Options = Open_oodb.Options
module Physprop = Open_oodb.Physprop
module Config = Oodb_cost.Config

(* ------------------------------------------------------------------ *)
(* Alpha-renaming                                                       *)

(* Canonical names are assigned in introduction order: a post-order walk
   visits each operator after its inputs, which is exactly the order
   bindings enter scope (Get at the leaves, Mat/Unnest above their
   input). Well-formed expressions introduce every binding once. *)
let renaming expr =
  let tbl = Hashtbl.create 16 in
  let n = ref 0 in
  let intro b =
    if not (Hashtbl.mem tbl b) then begin
      Hashtbl.add tbl b ("$" ^ string_of_int !n);
      incr n
    end
  in
  let rec walk t =
    List.iter walk t.Logical.inputs;
    match t.Logical.op with
    | Logical.Get { binding; _ } -> intro binding
    | Logical.Mat { out; _ } -> intro out
    | Logical.Unnest { out; _ } -> intro out
    | Logical.Select _ | Logical.Project _ | Logical.Join _ | Logical.Cross | Logical.Union
    | Logical.Intersect | Logical.Difference ->
      ()
  in
  walk expr;
  fun b -> match Hashtbl.find_opt tbl b with Some c -> c | None -> b

(* Orient each (renamed) atom so the smaller operand sits on the left,
   then sort the conjunction: conjunct order and operand mirroring are
   semantically irrelevant, so they must not split cache entries. *)
let canon_pred rename pred =
  Pred.rename rename pred
  |> List.map (fun (a : Pred.atom) ->
         if Stdlib.compare a.Pred.lhs a.Pred.rhs <= 0 then a
         else { Pred.cmp = Pred.flip a.Pred.cmp; lhs = a.Pred.rhs; rhs = a.Pred.lhs })
  |> List.sort Stdlib.compare

let canon_proj rename (p : Logical.proj) =
  let p_name =
    (* default-derived output names follow the binding renaming;
       explicit aliases name result columns and stay verbatim *)
    match p.Logical.p_expr with
    | Pred.Field (b, f) when p.Logical.p_name = b ^ "." ^ f -> rename b ^ "." ^ f
    | Pred.Self b when p.Logical.p_name = b -> rename b
    | Pred.Field _ | Pred.Self _ | Pred.Const _ -> p.Logical.p_name
  in
  let p_expr =
    match p.Logical.p_expr with
    | Pred.Const v -> Pred.Const v
    | Pred.Field (b, f) -> Pred.Field (rename b, f)
    | Pred.Self b -> Pred.Self (rename b)
  in
  { Logical.p_expr; p_name }

let canon_op rename = function
  | Logical.Get { coll; binding } -> Logical.Get { coll; binding = rename binding }
  | Logical.Select pred -> Logical.Select (canon_pred rename pred)
  | Logical.Project ps -> Logical.Project (List.map (canon_proj rename) ps)
  | Logical.Join pred -> Logical.Join (canon_pred rename pred)
  | Logical.Cross -> Logical.Cross
  | Logical.Mat { src; field; out } -> Logical.Mat { src = rename src; field; out = rename out }
  | Logical.Unnest { src; field; out } ->
    Logical.Unnest { src = rename src; field; out = rename out }
  | Logical.Union -> Logical.Union
  | Logical.Intersect -> Logical.Intersect
  | Logical.Difference -> Logical.Difference

let canon rename expr =
  let rec rewrite t =
    { Logical.op = canon_op rename t.Logical.op; inputs = List.map rewrite t.Logical.inputs }
  in
  rewrite expr

let canonical expr = canon (renaming expr) expr

(* ------------------------------------------------------------------ *)
(* Structural serialization                                             *)

(* Tagged, parenthesized and %S-escaped: distinct canonical trees
   serialize to distinct strings (the pretty-printer is for humans and
   not quite injective — [Str "1"] and [Int 1] both render as something
   readable; here they carry different tags). Strings are added as
   [Printf]'s [%S] renders them, ints as its [%d]. *)

let add_quoted buf s =
  Buffer.add_char buf '"';
  Buffer.add_string buf (String.escaped s);
  Buffer.add_char buf '"'

let add_int buf i = Buffer.add_string buf (string_of_int i)

let emit_value buf (v : Value.t) =
  let add = Buffer.add_string buf in
  let rec go = function
    | Value.Null -> add "null"
    | Value.Bool b -> add (if b then "bool:true" else "bool:false")
    | Value.Int i ->
      add "int:";
      add_int buf i
    | Value.Float f -> Printf.bprintf buf "float:%h" f
    | Value.Str s ->
      add "str:";
      add_quoted buf s
    | Value.Date d ->
      add "date:";
      add_int buf d
    | Value.Ref oid ->
      add "ref:";
      add_int buf oid
    | Value.Set vs ->
      add "set[";
      List.iter
        (fun v ->
          go v;
          add ";")
        vs;
      add "]"
  in
  go v

let emit_operand buf = function
  | Pred.Const v ->
    Buffer.add_string buf "const ";
    emit_value buf v
  | Pred.Field (b, f) ->
    Buffer.add_string buf "field ";
    add_quoted buf b;
    Buffer.add_char buf ' ';
    add_quoted buf f
  | Pred.Self b ->
    Buffer.add_string buf "self ";
    add_quoted buf b

let cmp_tag = function
  | Pred.Eq -> "eq"
  | Pred.Ne -> "ne"
  | Pred.Lt -> "lt"
  | Pred.Le -> "le"
  | Pred.Gt -> "gt"
  | Pred.Ge -> "ge"

let emit_pred buf pred =
  Buffer.add_char buf '[';
  List.iter
    (fun (a : Pred.atom) ->
      Buffer.add_char buf '(';
      Buffer.add_string buf (cmp_tag a.Pred.cmp);
      Buffer.add_char buf ' ';
      emit_operand buf a.Pred.lhs;
      Buffer.add_char buf ' ';
      emit_operand buf a.Pred.rhs;
      Buffer.add_char buf ')')
    pred;
  Buffer.add_char buf ']'

(* [tag], then each name quoted after a space. *)
let emit_tagged buf tag names =
  Buffer.add_string buf tag;
  List.iter
    (fun s ->
      Buffer.add_char buf ' ';
      add_quoted buf s)
    names

let emit_op buf op =
  let add = Buffer.add_string buf in
  match op with
  | Logical.Get { coll; binding } -> emit_tagged buf "get" [ coll; binding ]
  | Logical.Select pred ->
    add "select ";
    emit_pred buf pred
  | Logical.Project ps ->
    add "project";
    List.iter
      (fun (p : Logical.proj) ->
        add " (";
        add_quoted buf p.Logical.p_name;
        Buffer.add_char buf ' ';
        emit_operand buf p.Logical.p_expr;
        add ")")
      ps
  | Logical.Join pred ->
    add "join ";
    emit_pred buf pred
  | Logical.Cross -> add "cross"
  | Logical.Mat { src; field; out } ->
    emit_tagged buf "mat" [ src ];
    (match field with
    | Some f ->
      add " (";
      add_quoted buf f;
      add ") "
    | None -> add " () ");
    add_quoted buf out
  | Logical.Unnest { src; field; out } -> emit_tagged buf "unnest" [ src; field; out ]
  | Logical.Union -> add "union"
  | Logical.Intersect -> add "intersect"
  | Logical.Difference -> add "difference"

let rec emit_expr buf t =
  Buffer.add_char buf '(';
  emit_op buf t.Logical.op;
  List.iter
    (fun i ->
      Buffer.add_char buf ' ';
      emit_expr buf i)
    t.Logical.inputs;
  Buffer.add_char buf ')'

let emit_required buf rename (p : Physprop.t) =
  Buffer.add_string buf "required{mem:";
  (* sort after renaming: the set iterates in original-name order, which
     would leak the original spelling into the key *)
  Physprop.Bset.elements p.Physprop.in_memory
  |> List.map rename
  |> List.sort String.compare
  |> List.iter (fun b ->
         add_quoted buf b;
         Buffer.add_char buf ';');
  (match p.Physprop.order with
  | None -> Buffer.add_string buf "|order:none"
  | Some { Physprop.ord_binding; ord_field } ->
    Buffer.add_string buf "|order:";
    add_quoted buf (rename ord_binding);
    Buffer.add_char buf '.';
    (match ord_field with Some f -> add_quoted buf f | None -> Buffer.add_string buf "self"));
  Buffer.add_char buf '}'

(* Every option that can change the chosen plan. [verify] only checks
   the winner, so it does not split entries. *)
let render_options (o : Options.t) =
  let c = o.Options.config in
  Printf.sprintf
    "options{config:%d,%h,%h,%h,%d,%h,%h,%d,%h,%h,%d,%d,%h,%h|disabled:%s|pruning:%b|normalize:%b}"
    c.Config.page_bytes c.Config.seq_io c.Config.rand_io c.Config.asm_io_floor
    c.Config.assembly_window c.Config.cpu_tuple c.Config.cpu_call c.Config.batch_size
    c.Config.cpu_pred c.Config.cpu_hash
    c.Config.memory_bytes c.Config.buffer_pages c.Config.default_selectivity
    c.Config.range_selectivity
    (String.concat ","
       (List.sort_uniq String.compare (List.map String.escaped o.Options.disabled)))
    o.Options.pruning o.Options.normalize

(* The last options value rendered, compared physically. Every field
   [render_options] reads is immutable ([Config.feedback], whose tables
   change, is not rendered), so one value always renders the same; the
   slot keeps the value alive, so another value never shares its
   address. *)
let last_options = ref None

let options_part o =
  match !last_options with
  | Some (o', rendered) when o' == o -> rendered
  | Some _ | None ->
    let rendered = render_options o in
    last_options := Some (o, rendered);
    rendered

type t = string

let make ~catalog ~options ~required expr =
  let buf = Buffer.create 512 in
  let rename = renaming expr in
  emit_expr buf (canon rename expr);
  Buffer.add_char buf '|';
  emit_required buf rename required;
  Buffer.add_string buf "|catalog{epoch:";
  add_int buf (Catalog.epoch catalog);
  Buffer.add_string buf "|digest:";
  Buffer.add_string buf (Digest.to_hex (Catalog.digest catalog));
  Buffer.add_string buf "}|";
  Buffer.add_string buf (options_part options);
  Buffer.contents buf

let key = make

let equal = String.equal
