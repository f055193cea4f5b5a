module Pretty = Oodb_util.Pretty
module Span = Oodb_util.Span
module Json = Oodb_util.Json
module Vec = Oodb_util.Vec

module type MODEL = sig
  module Op : sig
    type t

    val arity : t -> int

    val equal : t -> t -> bool

    val hash : t -> int

    val pp : Format.formatter -> t -> unit
  end

  module Alg : sig
    type t

    val pp : Format.formatter -> t -> unit
  end

  module Lprop : sig
    type t

    val pp : Format.formatter -> t -> unit
  end

  module Typ : sig
    type t

    val equal : t -> t -> bool

    val pp : Format.formatter -> t -> unit
  end

  module Pprop : sig
    type t

    val equal : t -> t -> bool

    val hash : t -> int

    val satisfies : delivered:t -> required:t -> bool

    val pp : Format.formatter -> t -> unit
  end

  module Cost : sig
    type t

    val zero : t

    val add : t -> t -> t

    val sub : t -> t -> t

    val slack : t

    val compare : t -> t -> int

    val infinite : t

    val pp : Format.formatter -> t -> unit
  end
end

(* Kind-tagged packed ids: the table index in the high bits, a 2-bit kind
   tag in the low bits. Group ids stay plain table indexes in the public
   API (they predate this module and leak into traces, memo dumps and
   tests); multi-expressions and physical-memo entries, which are new as
   first-class table rows, carry tagged ids so a heterogeneous worklist
   or journal can tell them apart without context. *)
module Id = struct
  type kind = Group | Mexpr | Phys

  let bits = 2

  let max_idx = (1 lsl (Sys.int_size - 1 - bits)) - 1

  let tag = function Group -> 0 | Mexpr -> 1 | Phys -> 2

  let make k idx =
    if idx < 0 || idx > max_idx then invalid_arg "Volcano.Id.make: index overflow";
    (idx lsl bits) lor tag k

  let to_idx id = id lsr bits

  let kind_of id =
    match id land ((1 lsl bits) - 1) with
    | 0 -> Group
    | 1 -> Mexpr
    | 2 -> Phys
    | _ -> invalid_arg "Volcano.Id.kind_of: unknown tag"

  let pp ppf id =
    Format.fprintf ppf "%s%d"
      (match kind_of id with Group -> "g" | Mexpr -> "m" | Phys -> "p")
      (to_idx id)
end

module Make (M : MODEL) = struct
  type group = int

  exception Type_violation of string

  type mexpr = { mop : M.Op.t; minputs : group list }

  type build =
    | Node of M.Op.t * build list
    | Ref of group

  (* Structured search-trace events, emitted (only when a tracer is
     installed) at exactly the points where the statistics and per-rule
     counters increment — so any aggregation of a complete event stream
     reproduces [stats] and [rule_counters] by construction. *)
  type event =
    | Group_created of { group : group }
    | Mexpr_added of { group : group; op : M.Op.t }
    | Groups_merged of { winner : group; loser : group }
    | Trule_tried of { rule : string; group : group }
    | Trule_fired of { rule : string; group : group }
    | Irule_tried of { rule : string; group : group }
    | Candidate_costed of { rule : string; group : group; alg : M.Alg.t; cost : M.Cost.t }
    | Pruned of { group : group; alg : M.Alg.t; cost : M.Cost.t; limit : M.Cost.t }
    | Subgoal_pruned of { group : group; required : M.Pprop.t }
    | Enforcer_tried of { rule : string; group : group }
    | Enforcer_offered of { rule : string; group : group; alg : M.Alg.t; cost : M.Cost.t }
    | Enforcer_inserted of { group : group; alg : M.Alg.t }
    | Phys_memo_hit of { group : group; required : M.Pprop.t }

  (* ------------------------------------------------------------------ *)
  (* The exact structural intern key                                      *)

  (* op(inputs) with the operator interned to a small id and the input
     groups canonical: the common case (arity <= 2, ids within field
     width) packs into one immediate int — operator id in the high 24
     bits, each input group + 1 in a 19-bit field (0 = absent input) —
     and anything wider falls back to the boxed exact form. Either way
     equality is exact: the previous design's weak (op hash, inputs) key,
     whose collisions had to be resolved by scanning candidate groups'
     expression lists, is gone. *)
  type key = Packed of int | Wide of int * int list

  let input_bits = 19

  let max_packed_input = (1 lsl input_bits) - 2 (* +1 offset must still fit *)

  let max_packed_op = (1 lsl (Sys.int_size - 1 - (2 * input_bits))) - 1

  let make_key op_id (inputs : int array) =
    let n = Array.length inputs in
    if n <= 2 && op_id <= max_packed_op
       && (n < 1 || inputs.(0) <= max_packed_input)
       && (n < 2 || inputs.(1) <= max_packed_input)
    then
      let in0 = if n >= 1 then inputs.(0) + 1 else 0 in
      let in1 = if n >= 2 then inputs.(1) + 1 else 0 in
      Packed ((op_id lsl (2 * input_bits)) lor (in0 lsl input_bits) lor in1)
    else Wide (op_id, Array.to_list inputs)

  module Key_tbl = Hashtbl.Make (struct
    type t = key

    let equal a b =
      match a, b with
      | Packed x, Packed y -> Int.equal x y
      | Wide (o1, l1), Wide (o2, l2) -> Int.equal o1 o2 && List.equal Int.equal l1 l2
      | Packed _, Wide _ | Wide _, Packed _ -> false

    let hash = function
      | Packed x -> (x * 0x61c88647) land max_int
      | Wide _ as w -> Hashtbl.hash w
  end)

  module Op_tbl = Hashtbl.Make (M.Op)

  module Pprop_tbl = Hashtbl.Make (M.Pprop)

  type group_data = {
    gid : int;
    mutable gexprs : int list; (* mexpr ids, reverse insertion order *)
    mutable glprop : M.Lprop.t;
    mutable gtyp : M.Typ.t option;
        (* inferred type, set by the first interned mexpr when a typing
           hook is installed; every later mexpr and merge must agree *)
    mutable gusers : int list;
        (* mexpr ids that take this group as an input — the congruence
           repair worklist after a merge; may hold dead or duplicate ids
           (repair is idempotent), never misses a live user *)
    mutable gstamp : int;
        (* bumped whenever the group's visible expression set changes:
           an mexpr added, killed, or re-canonicalized *)
    mutable gcache_stamp : int; (* gstamp the cache was computed at; -1 = none *)
    mutable gcache : mexpr list;
        (* rules (join-associativity above all) rescan the same groups
           once per sibling multi-expression; materializing the public
           view once per change turns the closure's dominant cost from
           per-scan allocation into a plain list walk *)
    mutable gcache_ids : int list;
        (* packed ids of [gcache]'s mexprs, position for position: the
           physical search names the mexpr a candidate implements
           without re-interning it *)
  }

  type mexpr_data = {
    mx_id : int; (* Id.make Mexpr index *)
    mx_op : int; (* interned operator id *)
    mutable mx_inputs : int array; (* canonical as of the last repair *)
    mutable mx_group : int; (* owning group (canonicalize via find) *)
    mutable mx_key : key;
    mutable mx_alive : bool;
        (* cleared when a merge made the expression self-referential or a
           structural duplicate of another live one *)
  }

  type mutable_stats = {
    mutable s_trule_fired : int;
    mutable s_trule_tried : int;
    mutable s_candidates : int;
    mutable s_pruned_candidates : int;
    mutable s_pruned_subgoals : int;
    mutable s_enforcer_uses : int;
    mutable s_phys_memo_hits : int;
    mutable s_closure_steps : int;
    mutable s_closure_complete : bool;
  }

  type rule_counter = { mutable rc_tried : int; mutable rc_fired : int }

  (* ------------------------------------------------------------------ *)
  (* Provenance side-tables                                              *)

  (* How a logged physical candidate died (or didn't). [margin] is always
     the amount by which the bound was exceeded at the decision point
     (positive = over budget), before the [Cost.slack] tolerance:
     [Pruned_candidate] compares the candidate's local cost against the
     limit in force; [Pruned_subgoal] is the committed cost overrun when
     the remaining budget for a child goal went negative. [Abandoned]
     covers candidates that never completed for any other reason — the
     delivered property did not satisfy the requirement, or a child goal
     found no plan within its budget. *)
  type disposition =
    | Kept of M.Cost.t (* full plan cost when the candidate completed *)
    | Pruned_candidate of { limit : M.Cost.t; margin : M.Cost.t }
    | Pruned_subgoal of {
        subgoal : group;
        subgoal_required : M.Pprop.t;
        limit : M.Cost.t;
        margin : M.Cost.t;
      }
    | Abandoned

  (* One row of the candidate log: a physical candidate (or enforcer
     offer) at the moment it was costed, plus its final disposition. *)
  type prov_cand = {
    pc_seq : int;
    pc_group : group; (* canonical at record time; re-canonicalize on read *)
    pc_required : M.Pprop.t;
    pc_rule : string;
    pc_mexpr : int; (* packed mexpr id implementing it; -1 for enforcer offers *)
    pc_alg : M.Alg.t;
    pc_local_cost : M.Cost.t;
    pc_inputs : (group * M.Pprop.t) list;
    mutable pc_disposition : disposition;
  }

  (* Flat side-tables parallel to the memo's [Vec] representation.
     [pm_rule]/[pm_parent]/[pm_seq] are indexed by mexpr table index
     (pushed exactly when [ctx.mexprs] is); the candidate log is bounded
     by [pv_cap] with an explicit drop counter so truncated lineage is
     never silently presented as complete. *)
  type prov = {
    pm_rule : int Vec.t; (* interned trule id, -1 = root intern *)
    pm_parent : int Vec.t; (* packed mexpr id the rule fired on, -1 = none *)
    pm_seq : int Vec.t; (* global firing sequence number *)
    pr_names : string Vec.t;
    pr_index : (string, int) Hashtbl.t;
    pv_cands : prov_cand Vec.t;
    pv_cap : int;
    mutable pv_dropped : int;
    pv_winners : (int, int) Hashtbl.t; (* packed phys key -> candidate index *)
    mutable p_seq : int;
    mutable p_rule : int; (* firing context: current trule, -1 outside a firing *)
    mutable p_parent : int; (* firing context: mexpr fired on, -1 outside *)
  }

  type ctx = {
    parents : int Vec.t; (* union-find over group indexes *)
    groups : group_data Vec.t;
    mexprs : mexpr_data Vec.t;
    ops : M.Op.t Vec.t;
    op_index : int Op_tbl.t; (* operator -> interned id; exact M.Op.equal *)
    mexpr_index : int Key_tbl.t; (* exact structural key -> mexpr id *)
    pprop_index : int Pprop_tbl.t; (* physical-property interning *)
    mutable pprops : int; (* count of interned properties *)
    pending_unions : (int * int) Queue.t;
    mutable in_union : bool;
    ms : mutable_stats;
    rule_tbl : (string, rule_counter) Hashtbl.t;
    mutable generation : int;
        (* bumped whenever the logical memo changes (new mexpr or group
           merge); physical-memo entries from an older generation may be
           missing alternatives and are re-searched instead of served *)
    tracer : (event -> unit) option;
        (* [None] is the fast path: every emission site is a single match
           on this field and constructs no event *)
    prov : prov option;
        (* provenance side-tables; [None] is the same nil-sink fast path
           as [tracer] — recording sites are a single match *)
    typing : (M.Op.t -> M.Typ.t list -> (M.Typ.t, string) result) option;
        (* the memo-wide type invariant: when installed, every mexpr must
           derive a type, and all mexprs of one group must derive equal
           types; violations raise [Type_violation] *)
  }

  (* Resolved once per session for every enabled rule (see [session]),
     so the search loops bump a counter without hashing the rule's name
     on each try. *)
  let rule_counter ctx name =
    match Hashtbl.find_opt ctx.rule_tbl name with
    | Some c -> c
    | None ->
      let c = { rc_tried = 0; rc_fired = 0 } in
      Hashtbl.add ctx.rule_tbl name c;
      c

  (* Only rules the search invoked are listed: an enabled rule never
     tried (no mexpr of its operator) has a counter but no entry. *)
  let rule_counters ctx =
    Hashtbl.fold
      (fun name c acc -> if c.rc_tried > 0 then (name, c.rc_tried, c.rc_fired) :: acc else acc)
      ctx.rule_tbl []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

  let closure_complete ctx = ctx.ms.s_closure_complete

  let provenance_on ctx = ctx.prov <> None

  let prov_rule_id p name =
    match Hashtbl.find_opt p.pr_index name with
    | Some id -> id
    | None ->
      let id = Vec.push p.pr_names name in
      Hashtbl.add p.pr_index name id;
      id

  let prov_next_seq p =
    let s = p.p_seq in
    p.p_seq <- s + 1;
    s

  (* ------------------------------------------------------------------ *)
  (* Union-find over groups                                              *)

  let rec find ctx g =
    let p = Vec.get ctx.parents g in
    if p = g then g
    else begin
      let root = find ctx p in
      Vec.set ctx.parents g root;
      root
    end

  let group_data ctx g =
    if g < 0 || g >= Vec.length ctx.groups then invalid_arg "Volcano: unknown group";
    Vec.get ctx.groups (find ctx g)

  let mexpr_data ctx mid = Vec.get ctx.mexprs (Id.to_idx mid)

  let canon_inputs ctx inputs = Array.map (find ctx) inputs

  let self_ref_inputs g (inputs : int array) =
    let n = Array.length inputs in
    let rec go i = i < n && (inputs.(i) = g || go (i + 1)) in
    go 0

  (* ------------------------------------------------------------------ *)
  (* Memo construction                                                   *)

  let intern_op ctx op =
    match Op_tbl.find_opt ctx.op_index op with
    | Some id -> id
    | None ->
      let id = Vec.push ctx.ops op in
      Op_tbl.add ctx.op_index op id;
      id

  let new_group ctx lprop =
    let gid = Vec.length ctx.groups in
    let _ = Vec.push ctx.parents gid in
    let gd =
      { gid; gexprs = []; glprop = lprop; gtyp = None; gusers = []; gstamp = 0;
        gcache_stamp = -1; gcache = []; gcache_ids = [] }
    in
    let _ = Vec.push ctx.groups gd in
    (match ctx.tracer with None -> () | Some f -> f (Group_created { group = gid }));
    gid

  let group_lprop ctx g = (group_data ctx g).glprop

  let group_typ ctx g = (group_data ctx g).gtyp

  (* Canonical (union-find root) group ids, in creation order. *)
  let groups ctx =
    let acc = ref [] in
    for g = Vec.length ctx.groups - 1 downto 0 do
      if find ctx g = g then acc := g :: !acc
    done;
    !acc

  (* The group's data with its live multi-expressions cached, oldest
     first, in [gcache] (ids in [gcache_ids]). Congruence repair keeps
     inputs canonical and kills self-referential or duplicate forms
     eagerly, so this is a filter over dead ids, not a scan-and-rebuild;
     the cache holds until the group's [gstamp] moves. *)
  let cached_group ctx g =
    let root = find ctx g in
    let gd = Vec.get ctx.groups root in
    if gd.gcache_stamp <> gd.gstamp then begin
      (* [gexprs] is newest first, so consing yields oldest first *)
      let rec collect exprs ids = function
        | [] ->
          gd.gcache <- exprs;
          gd.gcache_ids <- ids
        | mid :: rest ->
          let mx = mexpr_data ctx mid in
          if not mx.mx_alive then collect exprs ids rest
          else
            let inputs = canon_inputs ctx mx.mx_inputs in
            if self_ref_inputs root inputs then collect exprs ids rest
            else
              collect
                ({ mop = Vec.get ctx.ops mx.mx_op; minputs = Array.to_list inputs } :: exprs)
                (mid :: ids) rest
      in
      collect [] [] gd.gexprs;
      gd.gcache_stamp <- gd.gstamp
    end;
    gd

  let group_exprs ctx g = (cached_group ctx g).gcache

  (* Memo-wide type invariant: derive the type of [m] from its input
     groups' types and check it against the group's; raises
     [Type_violation] on any failure. Inputs always carry a type when a
     hook is installed — a group is created together with its first
     mexpr, which sets it. *)
  let typecheck_mexpr ctx gd (m : mexpr) =
    match ctx.typing with
    | None -> ()
    | Some derive -> (
      let input_typ g' =
        match (group_data ctx g').gtyp with
        | Some ty -> ty
        | None ->
          raise
            (Type_violation
               (Format.asprintf "input group %d of %a has no inferred type" g' M.Op.pp
                  m.mop))
      in
      match derive m.mop (List.map input_typ m.minputs) with
      | Error msg ->
        raise
          (Type_violation (Format.asprintf "%a is ill-typed: %s" M.Op.pp m.mop msg))
      | Ok ty -> (
        match gd.gtyp with
        | None -> gd.gtyp <- Some ty
        | Some gty ->
          if not (M.Typ.equal ty gty) then
            raise
              (Type_violation
                 (Format.asprintf "group %d has type %a but %a derives %a" gd.gid
                    M.Typ.pp gty M.Op.pp m.mop M.Typ.pp ty))))

  let unbind_key ctx mx =
    match Key_tbl.find_opt ctx.mexpr_index mx.mx_key with
    | Some mid when mid = mx.mx_id -> Key_tbl.remove ctx.mexpr_index mx.mx_key
    | Some _ | None -> ()

  let add_user ctx g mid =
    let gd = group_data ctx g in
    gd.gusers <- mid :: gd.gusers

  let register_users ctx (inputs : int array) mid =
    (* duplicate registrations (a group twice among the inputs) are fine:
       repair is idempotent, and deduping here would cost a scan *)
    let seen_prev i =
      let rec go j = j < i && (inputs.(j) = inputs.(i) || go (j + 1)) in
      go 0
    in
    Array.iteri (fun i g -> if not (seen_prev i) then add_user ctx g mid) inputs

  (* Merge two groups discovered to be logically equivalent, then repair
     the intern table: every expression that used the absorbed group is
     re-canonicalized and re-interned, so keys never go stale and two
     groups holding the same (post-merge) expression are themselves
     merged — the cascade runs off [pending_unions] to a fixpoint. *)
  let rec union ctx g1 g2 =
    Queue.add (g1, g2) ctx.pending_unions;
    if not ctx.in_union then begin
      ctx.in_union <- true;
      Fun.protect
        ~finally:(fun () -> ctx.in_union <- false)
        (fun () ->
          while not (Queue.is_empty ctx.pending_unions) do
            let a, b = Queue.pop ctx.pending_unions in
            do_union ctx a b
          done)
    end

  and do_union ctx g1 g2 =
    let g1 = find ctx g1 and g2 = find ctx g2 in
    if g1 <> g2 then begin
      let winner, loser = if g1 < g2 then g1, g2 else g2, g1 in
      ctx.generation <- ctx.generation + 1;
      (match ctx.tracer with None -> () | Some f -> f (Groups_merged { winner; loser }));
      let wd = Vec.get ctx.groups winner and ld = Vec.get ctx.groups loser in
      (match wd.gtyp, ld.gtyp with
      | Some a, Some b when not (M.Typ.equal a b) ->
        raise
          (Type_violation
             (Format.asprintf
                "merge of groups %d and %d with incompatible types: %a vs %a" winner loser
                M.Typ.pp a M.Typ.pp b))
      | None, (Some _ as t) -> wd.gtyp <- t
      | _ -> ());
      Vec.set ctx.parents loser winner;
      (* re-home the absorbed group's expressions *)
      let moved = List.rev ld.gexprs in
      ld.gexprs <- [];
      List.iter (fun mid -> rehome ctx winner mid) moved;
      (* congruence repair: users of the absorbed group re-canonicalize;
         their ids migrate to the winner's user list (their repaired
         inputs now name the winner) *)
      let users = ld.gusers in
      ld.gusers <- [];
      wd.gusers <- List.rev_append users wd.gusers;
      List.iter (fun mid -> repair ctx mid) users
    end

  (* An expression of a just-absorbed group: move it into [winner],
     deduplicating against the intern table. *)
  and rehome ctx winner mid =
    let mx = mexpr_data ctx mid in
    if mx.mx_alive then begin
      unbind_key ctx mx;
      let inputs = canon_inputs ctx mx.mx_inputs in
      mx.mx_inputs <- inputs;
      mx.mx_group <- winner;
      if self_ref_inputs winner inputs then mx.mx_alive <- false
      else begin
        let k = make_key mx.mx_op inputs in
        mx.mx_key <- k;
        match Key_tbl.find_opt ctx.mexpr_index k with
        | Some other_id when other_id <> mid ->
          mx.mx_alive <- false;
          let og = find ctx (mexpr_data ctx other_id).mx_group in
          if og <> winner then union ctx winner og
        | Some _ | None ->
          Key_tbl.replace ctx.mexpr_index k mid;
          let wd = Vec.get ctx.groups winner in
          wd.gexprs <- mid :: wd.gexprs;
          wd.gstamp <- wd.gstamp + 1
      end
    end

  (* An expression (in any group) whose inputs mentioned a just-absorbed
     group: re-canonicalize and re-intern it under its exact key. A key
     collision here means two groups hold the same expression — the
     missed-merge case the old hashtable design silently accumulated —
     and queues their union. *)
  and repair ctx mid =
    let mx = mexpr_data ctx mid in
    if mx.mx_alive then begin
      let home = find ctx mx.mx_group in
      let hd = Vec.get ctx.groups home in
      hd.gstamp <- hd.gstamp + 1;
      unbind_key ctx mx;
      let inputs = canon_inputs ctx mx.mx_inputs in
      mx.mx_inputs <- inputs;
      if self_ref_inputs home inputs then mx.mx_alive <- false
      else begin
        let k = make_key mx.mx_op inputs in
        mx.mx_key <- k;
        match Key_tbl.find_opt ctx.mexpr_index k with
        | Some other_id when other_id <> mid ->
          mx.mx_alive <- false;
          let og = find ctx (mexpr_data ctx other_id).mx_group in
          if og <> home then union ctx home og
        | Some _ | None -> Key_tbl.replace ctx.mexpr_index k mid
      end
    end

  (* Add [m] to group [g]; returns the worklist entry to process and
     whether the expression was new anywhere in the memo. *)
  let add_mexpr ctx g (m : mexpr) =
    let g = find ctx g in
    let op_id = intern_op ctx m.mop in
    let inputs = canon_inputs ctx (Array.of_list m.minputs) in
    if self_ref_inputs g inputs then None
    else
      let k = make_key op_id inputs in
      match Key_tbl.find_opt ctx.mexpr_index k with
      | Some mid ->
        let g' = find ctx (mexpr_data ctx mid).mx_group in
        if g' = g then None
        else begin
          union ctx g g';
          None
        end
      | None ->
        let gd = Vec.get ctx.groups g in
        let m = { m with minputs = Array.to_list inputs } in
        typecheck_mexpr ctx gd m;
        let idx = Vec.length ctx.mexprs in
        let mid = Id.make Id.Mexpr idx in
        let mx =
          { mx_id = mid; mx_op = op_id; mx_inputs = inputs; mx_group = g; mx_key = k;
            mx_alive = true }
        in
        let _ = Vec.push ctx.mexprs mx in
        (match ctx.prov with
        | None -> ()
        | Some p ->
          (* one row per mexpr, pushed exactly when [ctx.mexprs] is *)
          let _ = Vec.push p.pm_rule p.p_rule in
          let _ = Vec.push p.pm_parent p.p_parent in
          let _ = Vec.push p.pm_seq (prov_next_seq p) in
          ());
        gd.gexprs <- mid :: gd.gexprs;
        gd.gstamp <- gd.gstamp + 1;
        Key_tbl.replace ctx.mexpr_index k mid;
        register_users ctx inputs mid;
        ctx.generation <- ctx.generation + 1;
        (match ctx.tracer with None -> () | Some f -> f (Mexpr_added { group = g; op = m.mop }));
        Some (g, m, mid)

  (* Exact lookup without insertion (intern_build's fast path). *)
  let lookup_mexpr ctx (m : mexpr) =
    match Op_tbl.find_opt ctx.op_index m.mop with
    | None -> None
    | Some op_id -> (
      let inputs = canon_inputs ctx (Array.of_list m.minputs) in
      match Key_tbl.find_opt ctx.mexpr_index (make_key op_id inputs) with
      | Some mid -> Some (find ctx (mexpr_data ctx mid).mx_group)
      | None -> None)

  (* ------------------------------------------------------------------ *)
  (* Rules and specification                                             *)

  type trule = {
    t_name : string;
    t_apply : ctx -> mexpr -> build list;
  }

  type candidate = {
    cand_alg : M.Alg.t;
    cand_inputs : (group * M.Pprop.t) list;
    cand_cost : M.Cost.t;
    cand_delivers : M.Pprop.t;
  }

  type coster = required:M.Pprop.t -> candidate list

  type irule = {
    i_name : string;
    i_promise : int;
    i_match : ctx -> mexpr -> coster option;
  }

  type enforcer = {
    e_name : string;
    e_apply : ctx -> required:M.Pprop.t -> group -> (M.Alg.t * M.Pprop.t * M.Cost.t) list;
  }

  type spec = {
    derive_lprop : M.Op.t -> M.Lprop.t list -> M.Lprop.t;
    transformations : trule list;
    implementations : irule list;
    enforcers : enforcer list;
  }

  type plan = {
    alg : M.Alg.t;
    children : plan list;
    cost : M.Cost.t;
    delivered : M.Pprop.t;
  }

  type stats = {
    groups : int;
    mexprs : int;
    trule_fired : int;
    trule_tried : int;
    candidates : int;
    pruned_candidates : int;
    pruned_subgoals : int;
    enforcer_uses : int;
    phys_memo_hits : int;
    closure_steps : int;
    closure_complete : bool;
    prov_records : int;
    prov_dropped : int;
  }

  type expr = Expr of M.Op.t * expr list

  type result = {
    plan : plan option;
    stats : stats;
    root : group;
    ctx : ctx;
  }

  (* ------------------------------------------------------------------ *)
  (* Logical closure                                                     *)

  (* Intern a build tree; fresh interior nodes get fresh (or shared)
     groups, with logical properties derived bottom-up. *)
  let rec intern_build spec ctx queue b =
    match b with
    | Ref g -> find ctx g
    | Node (op, children) ->
      let gs = List.map (intern_build spec ctx queue) children in
      let m = { mop = op; minputs = gs } in
      (match lookup_mexpr ctx m with
      | Some g -> g
      | None ->
        let lprop = spec.derive_lprop op (List.map (group_lprop ctx) gs) in
        let g = new_group ctx lprop in
        (match add_mexpr ctx g m with
        | Some entry -> Queue.add entry queue
        | None -> ());
        g)

  let rec intern_expr spec ctx queue (Expr (op, children)) =
    intern_build spec ctx queue
      (Node (op, List.map (fun e -> Ref (intern_expr spec ctx queue e)) children))

  let closure ?fuel spec ctx queue ~enabled_trules =
    let exhausted () =
      match fuel with None -> false | Some n -> ctx.ms.s_closure_steps >= n
    in
    while (not (Queue.is_empty queue)) && not (exhausted ()) do
      ctx.ms.s_closure_steps <- ctx.ms.s_closure_steps + 1;
      let g, m, mid = Queue.pop queue in
      List.iter
        (fun (rule, counter) ->
          ctx.ms.s_trule_tried <- ctx.ms.s_trule_tried + 1;
          counter.rc_tried <- counter.rc_tried + 1;
          (match ctx.tracer with
          | None -> ()
          | Some f -> f (Trule_tried { rule = rule.t_name; group = find ctx g }));
          (* Firing context: every mexpr interned while this rule's builds
             are processed (interior nodes included) is attributed to the
             rule and the mexpr it fired on. *)
          (match ctx.prov with
          | None -> ()
          | Some p ->
            p.p_rule <- prov_rule_id p rule.t_name;
            p.p_parent <- mid);
          let builds = rule.t_apply ctx m in
          List.iter
            (fun b ->
              match b with
              | Ref _ ->
                (* A rule asserting the whole group equals another group:
                   merge them. *)
                let g' = intern_build spec ctx queue b in
                if find ctx g <> find ctx g' then begin
                  counter.rc_fired <- counter.rc_fired + 1;
                  match ctx.tracer with
                  | None -> ()
                  | Some f -> f (Trule_fired { rule = rule.t_name; group = find ctx g })
                end;
                union ctx g g'
              | Node (op, children) ->
                let gs =
                  List.map (fun c -> intern_build spec ctx queue (c : build)) children
                in
                let m' = { mop = op; minputs = gs } in
                (match add_mexpr ctx g m' with
                | Some entry ->
                  ctx.ms.s_trule_fired <- ctx.ms.s_trule_fired + 1;
                  counter.rc_fired <- counter.rc_fired + 1;
                  (match ctx.tracer with
                  | None -> ()
                  | Some f -> f (Trule_fired { rule = rule.t_name; group = find ctx g }));
                  Queue.add entry queue
                | None -> ()))
            builds)
        enabled_trules;
      (match ctx.prov with
      | None -> ()
      | Some p ->
        p.p_rule <- -1;
        p.p_parent <- -1)
    done;
    (* A drained queue means the rule set reached its fixpoint; leftover
       entries mean the fuel budget interrupted a (possibly diverging)
       closure. *)
    ctx.ms.s_closure_complete <- Queue.is_empty queue

  (* ------------------------------------------------------------------ *)
  (* Physical search                                                     *)

  type entry = {
    mutable best : plan option;
    mutable searched : M.Cost.t option; (* fully searched up to this limit *)
    mutable in_progress : bool;
    mutable egen : int; (* ctx generation the entry was computed under *)
  }

  let cost_le a b = M.Cost.compare a b <= 0

  (* Bound checks that *discard* work (prune a candidate, skip a
     subgoal, refuse to return a memoized plan) tolerate [Cost.slack]
     over the limit: limits are propagated through [Cost.sub], whose
     rounding drifts from the exact algebraic value by ulps, and an
     exact check at the boundary would make the bounded search drop
     plans the exhaustive enumeration keeps. Anything surviving the
     slackened bound still faces the exact [compare] in [consider]. *)
  let bounded_le a limit = M.Cost.compare a (M.Cost.add limit M.Cost.slack) <= 0

  (* The physical memo key packs (group index, interned required-property
     id) into one int: the group in the high bits, the property id in the
     low 16. Properties are interned through [M.Pprop.equal]/[hash], so
     the packed key is exact; the id space is per session and overflow
     fails loudly rather than silently degrading. *)
  let pprop_bits = 16

  let intern_pprop ctx p =
    match Pprop_tbl.find_opt ctx.pprop_index p with
    | Some id -> id
    | None ->
      let id = ctx.pprops in
      if id >= 1 lsl pprop_bits then
        invalid_arg "Volcano: physical-property intern table overflow";
      ctx.pprops <- id + 1;
      Pprop_tbl.add ctx.pprop_index p id;
      id

  let phys_key ctx g p = Id.make Id.Phys ((g lsl pprop_bits) lor intern_pprop ctx p)

  (* Append one candidate-log row; returns its index, or -1 when
     provenance is off or the cap was hit (the drop is counted). *)
  let prov_log ctx ~group ~required ~rule ~mexpr ~alg ~local_cost ~inputs =
    match ctx.prov with
    | None -> -1
    | Some p ->
      if Vec.length p.pv_cands >= p.pv_cap then begin
        p.pv_dropped <- p.pv_dropped + 1;
        -1
      end
      else
        Vec.push p.pv_cands
          { pc_seq = prov_next_seq p;
            pc_group = group;
            pc_required = required;
            pc_rule = rule;
            pc_mexpr = mexpr;
            pc_alg = alg;
            pc_local_cost = local_cost;
            pc_inputs = inputs;
            pc_disposition = Abandoned }

  let prov_set ctx idx d =
    if idx >= 0 then
      match ctx.prov with
      | None -> ()
      | Some p -> (Vec.get p.pv_cands idx).pc_disposition <- d

  (* Implementation-rule matches, by mexpr table index: a coster per
     enabled rule (position for position with the session's rule array;
     [None] where the rule does not apply) and the memo generation they
     were derived at (-1: never). Everything a rule can work out without
     the goal's required properties is done once here, not once per
     goal. *)
  type matches = { mt_gen : int Vec.t; mt_costers : coster option array Vec.t }

  (* The costers of [mid], re-derived when the logical memo has moved
     since they were matched (a later root's closure may have added an
     alternative to an input group, so a rule may newly apply) — the
     same rule that re-searches stale physical-memo entries. *)
  let costers ctx ~matches ~irules m mid =
    let idx = Id.to_idx mid in
    while Vec.length matches.mt_gen <= idx do
      ignore (Vec.push matches.mt_gen (-1));
      ignore (Vec.push matches.mt_costers [||])
    done;
    if Vec.get matches.mt_gen idx <> ctx.generation then begin
      Vec.set matches.mt_costers idx
        (Array.map (fun ((ir : irule), _) -> ir.i_match ctx m) irules);
      Vec.set matches.mt_gen idx ctx.generation
    end;
    Vec.get matches.mt_costers idx

  let optimize_physical ctx ~memo ~matches ~irules ~enabled_enforcers ~pruning ~guided
      ~initial_limit ~root ~required =
    let find_entry g p = Hashtbl.find_opt memo (phys_key ctx g p) in
    let add_entry g p e = Hashtbl.add memo (phys_key ctx g p) e in
    let rec optimize g required limit =
      let g = find ctx g in
      let entry =
        match find_entry g required with
        | Some e ->
          (* The logical memo grew since this entry was searched (a later
             root's closure added alternatives to shared groups): its
             result may be missing cheaper plans, so re-search it. *)
          if e.egen <> ctx.generation && not e.in_progress then begin
            e.best <- None;
            e.searched <- None;
            e.egen <- ctx.generation
          end;
          e
        | None ->
          let e =
            { best = None; searched = None; in_progress = false; egen = ctx.generation }
          in
          add_entry g required e;
          e
      in
      if entry.in_progress then None
      else
        let proven_optimal =
          match entry.best, entry.searched with
          | Some p, Some s -> cost_le p.cost s
          | _ -> false
        in
        if proven_optimal then begin
          ctx.ms.s_phys_memo_hits <- ctx.ms.s_phys_memo_hits + 1;
          (match ctx.tracer with
          | None -> ()
          | Some f -> f (Phys_memo_hit { group = g; required }));
          match entry.best with
          | Some p when bounded_le p.cost limit -> Some p
          | Some _ | None -> None
        end
        else
          match entry.searched with
          | Some s when cost_le limit s ->
            (* already searched at least this far and found nothing *)
            ctx.ms.s_phys_memo_hits <- ctx.ms.s_phys_memo_hits + 1;
            (match ctx.tracer with
            | None -> ()
            | Some f -> f (Phys_memo_hit { group = g; required }));
            (match entry.best with
            | Some p when bounded_le p.cost limit -> Some p
            | Some _ | None -> None)
          | _ ->
            entry.in_progress <- true;
            let best = ref entry.best in
            let goal_key =
              match ctx.prov with None -> -1 | Some _ -> phys_key ctx g required
            in
            let current_limit () =
              if not pruning then M.Cost.infinite
              else
                match !best with
                | Some p when cost_le p.cost limit -> p.cost
                | _ -> limit
            in
            let consider pidx plan =
              match !best with
              | Some b when cost_le b.cost plan.cost -> ()
              | _ ->
                best := Some plan;
                (match ctx.prov with
                | Some p when pidx >= 0 -> Hashtbl.replace p.pv_winners goal_key pidx
                | Some _ | None -> ())
            in
            (* Guided mode may skip a subgoal outright when the budget
               left after the candidate's own cost is already negative:
               any child plan has non-negative cost, so the candidate is
               provably dominated and the subgoal is never expanded. The
               exhaustive mode reaches the same conclusion by recursing
               into the subgoal and failing — same winner, more work. *)
            let subgoal_dominated remaining =
              guided && pruning && M.Cost.compare (M.Cost.add remaining M.Cost.slack) M.Cost.zero < 0
            in
            let prune_subgoal child cprops =
              ctx.ms.s_pruned_subgoals <- ctx.ms.s_pruned_subgoals + 1;
              match ctx.tracer with
              | None -> ()
              | Some f -> f (Subgoal_pruned { group = find ctx child; required = cprops })
            in
            let try_candidate (cand, pidx) =
              ctx.ms.s_candidates <- ctx.ms.s_candidates + 1;
              if M.Pprop.satisfies ~delivered:cand.cand_delivers ~required then begin
                let limit0 = current_limit () in
                if not (bounded_le cand.cand_cost limit0) then begin
                  ctx.ms.s_pruned_candidates <- ctx.ms.s_pruned_candidates + 1;
                  prov_set ctx pidx
                    (Pruned_candidate
                       { limit = limit0; margin = M.Cost.sub cand.cand_cost limit0 });
                  match ctx.tracer with
                  | None -> ()
                  | Some f ->
                    f
                      (Pruned
                         { group = g;
                           alg = cand.cand_alg;
                           cost = cand.cand_cost;
                           limit = limit0 })
                end
                else begin
                  let rec opt_children acc_cost acc_plans = function
                    | [] -> Some (List.rev acc_plans, acc_cost)
                    | (child, cprops) :: rest -> (
                      let remaining = M.Cost.sub (current_limit ()) acc_cost in
                      if subgoal_dominated remaining then begin
                        prune_subgoal child cprops;
                        prov_set ctx pidx
                          (Pruned_subgoal
                             { subgoal = find ctx child;
                               subgoal_required = cprops;
                               limit = current_limit ();
                               margin = M.Cost.sub M.Cost.zero remaining });
                        None
                      end
                      else
                        match optimize child cprops remaining with
                        | None -> None
                        | Some cplan ->
                          opt_children (M.Cost.add acc_cost cplan.cost) (cplan :: acc_plans)
                            rest)
                  in
                  match opt_children cand.cand_cost [] cand.cand_inputs with
                  | None -> ()
                  | Some (children, total) ->
                    prov_set ctx pidx (Kept total);
                    consider pidx
                      { alg = cand.cand_alg;
                        children;
                        cost = total;
                        delivered = cand.cand_delivers }
                end
              end
            in
            (* Candidates are produced rule by rule (promise order, when
               guided); guided search then costs them cheapest-local-cost
               first, so the branch-and-bound limit tightens before the
               expensive alternatives are considered. *)
            let deferred = ref [] in
            let gd = cached_group ctx g in
            List.iter2
              (fun m mid ->
                let costers = costers ctx ~matches ~irules m mid in
                Array.iteri
                  (fun k ((ir : irule), counter) ->
                    counter.rc_tried <- counter.rc_tried + 1;
                    (match ctx.tracer with
                    | None -> ()
                    | Some f -> f (Irule_tried { rule = ir.i_name; group = g }));
                    match costers.(k) with
                    | None -> ()
                    | Some cost ->
                      let cands = cost ~required in
                      counter.rc_fired <- counter.rc_fired + List.length cands;
                      List.iter
                        (fun cand ->
                          (match ctx.tracer with
                          | None -> ()
                          | Some f ->
                            f
                              (Candidate_costed
                                 { rule = ir.i_name;
                                   group = g;
                                   alg = cand.cand_alg;
                                   cost = cand.cand_cost }));
                          let pidx =
                            prov_log ctx ~group:g ~required ~rule:ir.i_name ~mexpr:mid
                              ~alg:cand.cand_alg ~local_cost:cand.cand_cost
                              ~inputs:cand.cand_inputs
                          in
                          if guided then deferred := (cand, pidx) :: !deferred
                          else try_candidate (cand, pidx))
                        cands)
                  irules)
              gd.gcache gd.gcache_ids;
            if guided then
              List.stable_sort
                (fun (a, _) (b, _) -> M.Cost.compare a.cand_cost b.cand_cost)
                (List.rev !deferred)
              |> List.iter try_candidate;
            (* Enforcers: achieve [required] by gluing a property-enforcing
               algorithm on top of a plan for weaker requirements. *)
            List.iter
              (fun ((en : enforcer), counter) ->
                counter.rc_tried <- counter.rc_tried + 1;
                (match ctx.tracer with
                | None -> ()
                | Some f -> f (Enforcer_tried { rule = en.e_name; group = g }));
                let offers = en.e_apply ctx ~required g in
                counter.rc_fired <- counter.rc_fired + List.length offers;
                List.iter
                  (fun (alg, weaker, ecost) ->
                    (match ctx.tracer with
                    | None -> ()
                    | Some f ->
                      f (Enforcer_offered { rule = en.e_name; group = g; alg; cost = ecost }));
                    let pidx =
                      prov_log ctx ~group:g ~required ~rule:en.e_name ~mexpr:(-1) ~alg
                        ~local_cost:ecost
                        ~inputs:[ (g, weaker) ]
                    in
                    let remaining = M.Cost.sub (current_limit ()) ecost in
                    if subgoal_dominated remaining then begin
                      prov_set ctx pidx
                        (Pruned_subgoal
                           { subgoal = g;
                             subgoal_required = weaker;
                             limit = current_limit ();
                             margin = M.Cost.sub M.Cost.zero remaining });
                      prune_subgoal g weaker
                    end
                    else
                      match optimize g weaker remaining with
                      | None -> ()
                      | Some sub ->
                        ctx.ms.s_enforcer_uses <- ctx.ms.s_enforcer_uses + 1;
                        (match ctx.tracer with
                        | None -> ()
                        | Some f -> f (Enforcer_inserted { group = g; alg }));
                        let total = M.Cost.add ecost sub.cost in
                        prov_set ctx pidx (Kept total);
                        consider pidx
                          { alg;
                            children = [ sub ];
                            cost = total;
                            delivered = required })
                  offers)
              enabled_enforcers;
            entry.best <- !best;
            entry.searched <-
              Some
                (match entry.searched with
                | Some s when not (cost_le s limit) -> s
                | _ -> limit);
            entry.in_progress <- false;
            (match !best with
            | Some p when bounded_le p.cost limit -> Some p
            | Some _ | None -> None)
    in
    optimize root required initial_limit

  (* ------------------------------------------------------------------ *)
  (* Entry point                                                         *)

  let count_groups (ctx : ctx) =
    let n = ref 0 in
    for g = 0 to Vec.length ctx.groups - 1 do
      if find ctx g = g then incr n
    done;
    !n

  let count_mexprs ctx =
    List.fold_left (fun n g -> n + List.length (group_exprs ctx g)) 0 (groups ctx)

  (* A session owns one memo (logical groups plus the physical
     (group, properties) table) shared across any number of roots: the
     multi-query-optimization substrate. Registering a root interns its
     expression — re-finding every group an earlier root already created
     — and runs the logical closure over whatever is genuinely new;
     solving runs the goal-directed physical search, whose memo entries
     persist across roots, so a subexpression shared by two queries is
     expanded, costed and pruned once. *)
  type session = {
    ss_spec : spec;
    ss_trules : (trule * rule_counter) list; (* enabled rules with their counters *)
    ss_irules : (irule * rule_counter) array; (* in application order *)
    ss_matches : matches;
    ss_enforcers : (enforcer * rule_counter) list;
    ss_pruning : bool;
    ss_guided : bool;
    ss_closure_fuel : int option; (* budget over the whole session's closure steps *)
    ss_spans : Span.t option; (* search-phase spans; None is the nil-sink fast path *)
    ss_ctx : ctx;
    ss_phys : (int, entry) Hashtbl.t; (* packed (group, pprop id) -> entry *)
  }

  let default_provenance_cap = 1 lsl 20

  let session ?(disabled = []) ?(pruning = true) ?(guided = false) ?closure_fuel ?trace
      ?spans ?typing ?(provenance = false) ?(provenance_cap = default_provenance_cap)
      spec =
    let enabled name = not (List.mem name disabled) in
    let prov =
      if not provenance then None
      else
        Some
          { pm_rule = Vec.create ~capacity:256 ();
            pm_parent = Vec.create ~capacity:256 ();
            pm_seq = Vec.create ~capacity:256 ();
            pr_names = Vec.create ~capacity:32 ();
            pr_index = Hashtbl.create 32;
            pv_cands = Vec.create ~capacity:256 ();
            pv_cap = provenance_cap;
            pv_dropped = 0;
            pv_winners = Hashtbl.create 256;
            p_seq = 0;
            p_rule = -1;
            p_parent = -1 }
    in
    let ctx =
      { parents = Vec.create ~capacity:64 ();
        groups = Vec.create ~capacity:64 ();
        mexprs = Vec.create ~capacity:256 ();
        ops = Vec.create ~capacity:64 ();
        op_index = Op_tbl.create 256;
        mexpr_index = Key_tbl.create 256;
        pprop_index = Pprop_tbl.create 16;
        pprops = 0;
        pending_unions = Queue.create ();
        in_union = false;
        ms =
          { s_trule_fired = 0;
            s_trule_tried = 0;
            s_candidates = 0;
            s_pruned_candidates = 0;
            s_pruned_subgoals = 0;
            s_enforcer_uses = 0;
            s_phys_memo_hits = 0;
            s_closure_steps = 0;
            s_closure_complete = true };
        rule_tbl = Hashtbl.create 32;
        generation = 0;
        tracer = trace;
        prov;
        typing }
    in
    let resolve name_of rules =
      List.filter_map
        (fun r -> if enabled (name_of r) then Some (r, rule_counter ctx (name_of r)) else None)
        rules
    in
    let irules = resolve (fun r -> r.i_name) spec.implementations in
    { ss_spec = spec;
      ss_trules = resolve (fun r -> r.t_name) spec.transformations;
      ss_irules =
        (* guided search applies rules in promise order (highest first, ties
           keep registration order), so cheap/high-yield algorithms tighten
           the branch-and-bound limit before expensive ones are costed *)
        Array.of_list
          (if guided then
             List.stable_sort (fun (a, _) (b, _) -> Int.compare b.i_promise a.i_promise) irules
           else irules);
      ss_matches =
        { mt_gen = Vec.create ~capacity:256 (); mt_costers = Vec.create ~capacity:256 () };
      ss_enforcers = resolve (fun r -> r.e_name) spec.enforcers;
      ss_pruning = pruning;
      ss_guided = guided;
      ss_closure_fuel = closure_fuel;
      ss_spans = spans;
      ss_ctx = ctx;
      ss_phys = Hashtbl.create 256 }

  let session_ctx s = s.ss_ctx

  let register s expr =
    let ctx = s.ss_ctx in
    let queue = Queue.create () in
    let root =
      Span.with_span s.ss_spans ~cat:"volcano" "intern" (fun () ->
          intern_expr s.ss_spec ctx queue expr)
    in
    Span.with_span s.ss_spans ~cat:"volcano" "logical-closure"
      ~args:[ ("root_group", Json.Int root) ]
      (fun () ->
        closure ?fuel:s.ss_closure_fuel s.ss_spec ctx queue ~enabled_trules:s.ss_trules);
    find ctx root

  let snapshot_stats ctx =
    { groups = count_groups ctx;
      mexprs = count_mexprs ctx;
      trule_fired = ctx.ms.s_trule_fired;
      trule_tried = ctx.ms.s_trule_tried;
      candidates = ctx.ms.s_candidates;
      pruned_candidates = ctx.ms.s_pruned_candidates;
      pruned_subgoals = ctx.ms.s_pruned_subgoals;
      enforcer_uses = ctx.ms.s_enforcer_uses;
      phys_memo_hits = ctx.ms.s_phys_memo_hits;
      closure_steps = ctx.ms.s_closure_steps;
      closure_complete = ctx.ms.s_closure_complete;
      prov_records =
        (match ctx.prov with
        | None -> 0
        | Some p -> Vec.length p.pm_rule + Vec.length p.pv_cands);
      prov_dropped = (match ctx.prov with None -> 0 | Some p -> p.pv_dropped) }

  let solve s ?(initial_limit = M.Cost.infinite) root ~required =
    let ctx = s.ss_ctx in
    let plan =
      Span.with_span s.ss_spans ~cat:"volcano" "physical-search"
        ~args:[ ("root_group", Json.Int (find ctx root)) ]
        (fun () ->
          optimize_physical ctx ~memo:s.ss_phys ~matches:s.ss_matches ~irules:s.ss_irules
            ~enabled_enforcers:s.ss_enforcers ~pruning:s.ss_pruning ~guided:s.ss_guided
            ~initial_limit ~root:(find ctx root) ~required)
    in
    { plan; stats = snapshot_stats ctx; root = find ctx root; ctx }

  let run ?disabled ?pruning ?guided ?(initial_limit = M.Cost.infinite) ?closure_fuel
      ?trace ?spans ?typing ?provenance ?provenance_cap spec expr ~required =
    let s =
      session ?disabled ?pruning ?guided ?closure_fuel ?trace ?spans ?typing ?provenance
        ?provenance_cap spec
    in
    let root = register s expr in
    solve s ~initial_limit root ~required

  (* ------------------------------------------------------------------ *)
  (* Provenance read API                                                 *)

  type lineage = {
    lin_id : int; (* packed mexpr id *)
    lin_group : group; (* canonical owning group *)
    lin_op : M.Op.t;
    lin_inputs : group list;
    lin_rule : string option; (* None = root intern *)
    lin_parent : int option; (* packed mexpr id the rule fired on *)
    lin_seq : int;
    lin_alive : bool;
  }

  type cand_record = {
    cr_index : int;
    cr_seq : int;
    cr_group : group;
    cr_required : M.Pprop.t;
    cr_rule : string;
    cr_mexpr : int option; (* packed mexpr id; None for enforcer offers *)
    cr_alg : M.Alg.t;
    cr_local_cost : M.Cost.t;
    cr_inputs : (group * M.Pprop.t) list;
    cr_disposition : disposition;
  }

  let lineage ctx mid =
    match ctx.prov with
    | None -> None
    | Some p ->
      let idx = Id.to_idx mid in
      if idx < 0 || idx >= Vec.length p.pm_rule then None
      else
        let mx = Vec.get ctx.mexprs idx in
        let rule_id = Vec.get p.pm_rule idx in
        let parent = Vec.get p.pm_parent idx in
        Some
          { lin_id = mx.mx_id;
            lin_group = find ctx mx.mx_group;
            lin_op = Vec.get ctx.ops mx.mx_op;
            lin_inputs = Array.to_list (canon_inputs ctx mx.mx_inputs);
            lin_rule = (if rule_id < 0 then None else Some (Vec.get p.pr_names rule_id));
            lin_parent = (if parent < 0 then None else Some parent);
            lin_seq = Vec.get p.pm_seq idx;
            lin_alive = mx.mx_alive }

  let lineages ctx =
    match ctx.prov with
    | None -> []
    | Some p ->
      let n = Vec.length p.pm_rule in
      List.filter_map (fun i -> lineage ctx (Id.make Id.Mexpr i)) (List.init n Fun.id)

  (* Trule chain that derived [mid], oldest firing first: walk parent
     pointers to the root intern, collecting each step's producing rule. *)
  let rule_chain ctx mid =
    match ctx.prov with
    | None -> []
    | Some p ->
      let rec walk acc mid =
        let idx = Id.to_idx mid in
        if idx < 0 || idx >= Vec.length p.pm_rule then acc
        else
          let rule_id = Vec.get p.pm_rule idx in
          let acc =
            if rule_id < 0 then acc else Vec.get p.pr_names rule_id :: acc
          in
          let parent = Vec.get p.pm_parent idx in
          if parent < 0 then acc else walk acc parent
      in
      walk [] mid

  let cand_record_of p ctx idx =
    let c = Vec.get p.pv_cands idx in
    { cr_index = idx;
      cr_seq = c.pc_seq;
      cr_group = find ctx c.pc_group;
      cr_required = c.pc_required;
      cr_rule = c.pc_rule;
      cr_mexpr = (if c.pc_mexpr < 0 then None else Some c.pc_mexpr);
      cr_alg = c.pc_alg;
      cr_local_cost = c.pc_local_cost;
      cr_inputs = List.map (fun (g, pr) -> (find ctx g, pr)) c.pc_inputs;
      cr_disposition = c.pc_disposition }

  let cand_records ctx =
    match ctx.prov with
    | None -> []
    | Some p ->
      List.init (Vec.length p.pv_cands) (fun i -> cand_record_of p ctx i)

  let cand_record ctx idx =
    match ctx.prov with
    | None -> None
    | Some p ->
      if idx < 0 || idx >= Vec.length p.pv_cands then None
      else Some (cand_record_of p ctx idx)

  let provenance_dropped ctx =
    match ctx.prov with None -> 0 | Some p -> p.pv_dropped

  (* Winning candidate of a searched (group, required) goal, if any. *)
  let winner_of ctx g ~required =
    match ctx.prov with
    | None -> None
    | Some p -> (
      match Hashtbl.find_opt p.pv_winners (phys_key ctx (find ctx g) required) with
      | None -> None
      | Some idx -> Some (cand_record_of p ctx idx))

  let rec plan_to_tree plan =
    Pretty.Node (Format.asprintf "%a" M.Alg.pp plan.alg, List.map plan_to_tree plan.children)

  let pp_plan ppf plan = Format.pp_print_string ppf (Pretty.render (plan_to_tree plan))

  let pp_memo ppf (ctx : ctx) =
    for g = 0 to Vec.length ctx.groups - 1 do
      if find ctx g = g then begin
        let gd = Vec.get ctx.groups g in
        Format.fprintf ppf "group %d: %a@." g M.Lprop.pp gd.glprop;
        List.iter
          (fun m ->
            Format.fprintf ppf "  %a [%s]@." M.Op.pp m.mop
              (String.concat " " (List.map string_of_int m.minputs)))
          (group_exprs ctx g)
      end
    done
end
