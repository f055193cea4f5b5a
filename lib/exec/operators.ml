module Value = Oodb_storage.Value
module Store = Oodb_storage.Store
module Disk = Oodb_storage.Disk
module Btree_index = Oodb_storage.Btree_index
module Pred = Oodb_algebra.Pred
module Logical = Oodb_algebra.Logical
module Physical = Open_oodb.Physical
module Config = Oodb_cost.Config

(* The schema with [b] appended, built once per input schema, so every
   tuple an operator extends from one input schema shares one output
   schema. *)
let extender b = Env.memo (fun schema -> Env.extend_schema schema b)

let extend_with ext (env : Env.t) slot = Env.extend (Env.get ext env.Env.schema) env slot

(* Concatenations of two inputs' schemas, built once per pair. *)
let concatenator () = Env.memo (fun l -> Env.memo (fun r -> Array.append l r))

let concat_with cat (l : Env.t) (r : Env.t) =
  Env.concat (Env.get (Env.get cat l.Env.schema) r.Env.schema) l r

(* Demote slots of bindings outside [keep] to bare references. This is
   the runtime counterpart of the optimizer's delivered-properties
   vector: objects a plan node does not promise in memory are not
   carried (a real engine would not copy them into its output tuples),
   and any later attempt to read their fields raises
   [Env.Not_materialized], surfacing property-machinery bugs. A tuple
   with nothing to demote passes through, and so does a batch of them. *)
let trim keep child =
  let outside = Env.memo (Env.positions (fun b -> not (List.mem b keep))) in
  let demote (env : Env.t) =
    match Env.get outside env.Env.schema with [||] -> env | ps -> Env.demote env ps
  in
  Iterator.make_batched
    ~open_:(fun () -> Iterator.open_ child)
    ~next_batch:(fun () -> Option.map (Batch.map demote) (Iterator.next_batch child))
    ~close:(fun () -> Iterator.close child)

let file_scan db ~coll ~binding ~batch_size =
  let store = Db.store db in
  let batch_size = max 1 batch_size in
  let schema = [| binding |] in
  let pos = ref 0 in
  Iterator.make_batched
    ~open_:(fun () -> pos := 0)
    ~next_batch:(fun () ->
      match Store.scan_batch store ~coll ~pos:!pos ~n:batch_size with
      | [||] -> None
      | oids ->
        pos := !pos + Array.length oids;
        Some (Batch.of_array (Array.map (fun oid -> Env.make schema [| Env.in_memory oid |]) oids)))
    ~close:(fun () -> ())

let index_scan db ~coll ~binding ~index ~key ~residual ~derefs ~batch_size =
  ignore coll;
  let store = Db.store db in
  let batch_size = max 1 batch_size in
  let ix =
    match Db.find_index db index with
    | Some ix -> ix
    | None -> invalid_arg (Printf.sprintf "Operators.index_scan: no physical index %s" index)
  in
  let schema = [| binding |] in
  let residual = Eval.compile_fetched_pred store binding residual in
  (* Re-emit the reference bindings of a collapsed Mat chain. The first
     link reads a field of the fetched root for free; deeper links must
     fetch the intermediate object (rare: multi-link paths below an
     unprojected root). A link whose source is unbound or whose field
     holds no reference leaves the tuple as it is. *)
  let compile_deref (src, field, out) =
    let src_ix = Env.index src and ext = extender out in
    match field with
    | None -> fun env -> extend_with ext env (Env.reference (Env.oid_at src_ix env))
    | Some f -> (
      let col = Store.reader store f in
      fun env ->
        match Env.slot_at src_ix env with
        | exception Env.Unbound _ -> env
        | s ->
          let oid = Env.slot_oid s in
          if not (Env.is_in_memory s) then Store.fetch store oid;
          let target = Store.ref_cell col oid in
          if target = Store.null then env else extend_with ext env (Env.reference target))
  in
  let deref =
    match List.map compile_deref derefs with
    | [] -> None
    | ds -> Some (fun env -> List.fold_left (fun env d -> d env) env ds)
  in
  let cursor = ref (Btree_index.cursor ix key) in
  Iterator.make_batched
    ~open_:(fun () -> cursor := Btree_index.cursor ix key)
    ~next_batch:(fun () ->
      match Btree_index.next_batch !cursor ~n:batch_size Fun.id with
      | [||] -> None
      | oids ->
        (* The residual reads each object's columns as soon as it is
           fetched; only the objects that pass become tuples. *)
        let kept = ref 0 in
        for i = 0 to Array.length oids - 1 do
          let oid = oids.(i) in
          Store.fetch store oid;
          if residual oid then begin
            oids.(!kept) <- oid;
            incr kept
          end
        done;
        let b =
          Batch.of_array (Array.init !kept (fun i -> Env.make schema [| Env.in_memory oids.(i) |]))
        in
        Some (match deref with None -> b | Some d -> Batch.map d b))
    ~close:(fun () -> ())

let filter db pred child =
  let pred = Eval.compile_pred (Db.store db) pred in
  Iterator.make_batched
    ~open_:(fun () -> Iterator.open_ child)
    ~next_batch:(fun () -> Option.map (Batch.filter pred) (Iterator.next_batch child))
    ~close:(fun () -> Iterator.close child)

(* ------------------------------------------------------------------ *)
(* Hybrid hash join                                                     *)

let operand_side build_scope op =
  let bs = Pred.bindings_of_operand op in
  if bs = [] then `Const
  else if List.for_all (fun b -> List.mem b build_scope) bs then `Build
  else if List.for_all (fun b -> not (List.mem b build_scope)) bs then `Probe
  else `Mixed

(* Split the conjunction into hash-key pairs (build operand, probe
   operand) and residual atoms. *)
let classify_atoms build_scope atoms =
  List.fold_left
    (fun (keys, residual) (a : Pred.atom) ->
      if a.Pred.cmp = Pred.Eq then
        match operand_side build_scope a.Pred.lhs, operand_side build_scope a.Pred.rhs with
        | `Build, `Probe -> ((a.Pred.lhs, a.Pred.rhs) :: keys, residual)
        | `Probe, `Build -> ((a.Pred.rhs, a.Pred.lhs) :: keys, residual)
        | _ -> (keys, a :: residual)
      else (keys, a :: residual))
    ([], []) atoms

(* Bytes a tuple occupies in a hash table: a 16-byte header plus every
   object in memory. *)
let env_bytes store (env : Env.t) =
  let bytes = ref 16 in
  for i = 0 to Array.length env.Env.slots - 1 do
    let s = env.Env.slots.(i) in
    if Env.is_in_memory s then bytes := !bytes + Store.obj_bytes store (Env.slot_oid s)
  done;
  !bytes

(* Simulated partitioning pass: write [bytes] to a temp segment and read
   them back, so spills are visible in the disk statistics. *)
let charge_spill store bytes =
  let disk = Store.disk store in
  let page_size = Disk.page_size disk in
  let pages = (bytes + page_size - 1) / page_size in
  if pages > 0 then begin
    let seg = Disk.alloc_segment disk ~name:"hashjoin-spill" in
    Disk.extend disk seg pages;
    for p = 0 to pages - 1 do
      Disk.write disk seg p
    done;
    for p = 0 to pages - 1 do
      Disk.read disk seg p
    done
  end

(* A build table: [add] files a build tuple under its key, and [matches]
   lists the build tuples whose key equals a probe tuple's, most
   recently built first. *)
type table = { add : Env.t -> unit; matches : Env.t -> Env.t list }

(* Every build tuple is stored under its own key, and [find_all] tests
   each stored key against the probe key: [Value.equal] is not
   transitive across Int and Float beyond 2^53 (Int 2^53 and Int 2^53+1
   both equal Float 2^53), so tuples cannot be grouped by key. *)
module Value_table = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal

  let hash = Value.hash
end)

(* One hash key per tuple: the single key operand's value, a [Set] of
   the values for a composite key (equal exactly when every component
   is), [Null] for every tuple when no conjunct is a key. *)
let compile_key store operands =
  match List.map (Eval.compile_operand store) operands with
  | [] -> fun _ -> Value.Null
  | [ k ] -> k
  | ks -> fun env -> Value.Set (List.map (fun k -> k env) ks)

let value_table store keys =
  let build_key = compile_key store (List.map fst keys)
  and probe_key = compile_key store (List.map snd keys) in
  let t = Value_table.create 64 in
  { add = (fun env -> Value_table.add t (build_key env) env);
    (* [find] allocates nothing, so a probe tuple without a match costs
       no allocation; [find_all] then lists the matches. *)
    matches =
      (fun env ->
        let key = probe_key env in
        match Value_table.find t key with
        | _ -> Value_table.find_all t key
        | exception Not_found -> []) }

(* Build tuples grouped by OID, each group most recently built first:
   open addressing with linear probing over two parallel arrays whose
   length is a power of two, kept at most half full. A slot is free
   exactly when its group is empty, so every int is a valid key. The
   home slot is the top bits of the OID times an odd constant near
   2^63/phi (Fibonacci hashing), which spreads runs and strides of OIDs
   over the table. *)
module Oid_table = struct
  type t = {
    mutable keys : Value.oid array;
    mutable groups : Env.t list array;
    mutable shift : int; (* 63 - log2 (length keys) *)
    mutable size : int; (* occupied slots *)
  }

  let create () = { keys = Array.make 64 0; groups = Array.make 64 []; shift = 57; size = 0 }

  let rec probe t oid i =
    match t.groups.(i) with
    | [] -> i
    | _ :: _ -> if t.keys.(i) = oid then i else probe t oid ((i + 1) land (Array.length t.keys - 1))

  (* The slot holding [oid]'s group, or the free slot where it belongs. *)
  let slot t oid = probe t oid ((oid * 0x4F1BBCDCBFA53C01) lsr t.shift)

  let find t oid = t.groups.(slot t oid)

  let rec add t oid env =
    let i = slot t oid in
    match t.groups.(i) with
    | _ :: _ as group -> t.groups.(i) <- env :: group
    | [] ->
      t.keys.(i) <- oid;
      t.groups.(i) <- [ env ];
      t.size <- t.size + 1;
      if 2 * t.size > Array.length t.keys then grow t

  and grow t =
    let keys = t.keys and groups = t.groups in
    let n = 2 * Array.length keys in
    t.keys <- Array.make n 0;
    t.groups <- Array.make n [];
    t.shift <- t.shift - 1;
    Array.iteri
      (fun i group ->
        match group with
        | [] -> ()
        | _ :: _ ->
          let j = slot t keys.(i) in
          t.keys.(j) <- keys.(i);
          t.groups.(j) <- group)
      groups
end

(* [with_oid op ~none f] applies [f env oid] to the OID that [op] names
   in [env]. A [Self] operand always names one; a [Field] names the
   reference it holds, and yields [none] when it holds [Null] or a
   non-reference value, which equals no identity. *)
let with_oid store op ~none f =
  match op with
  | Pred.Self b ->
    let ix = Env.index b in
    fun env -> f env (Env.oid_at ix env)
  | Pred.Field (b, field) ->
    let ix = Env.index b and col = Store.reader store field in
    fun env ->
      let oid = Store.ref_cell col (Env.obj_at ix env) in
      if oid = Store.null then none else f env oid
  | op -> (
    let value = Eval.compile_operand store op in
    fun env -> match value env with Value.Ref oid -> f env oid | _ -> none)

(* Grouping build tuples by key is sound here because OIDs compare as
   ints, whose equality is transitive (unlike [Value.equal], see
   [Value_table]), so a probe costs one int lookup. *)
let oid_table store (build_op, probe_op) =
  let t = Oid_table.create () in
  { add = with_oid store build_op ~none:() (fun env oid -> Oid_table.add t oid env);
    matches = with_oid store probe_op ~none:[] (fun _ oid -> Oid_table.find t oid) }

(* A single key conjunct that compares an identity with an identity or
   a reference (the shape the Mat-to-Join rewrite produces) is keyed by
   OID; every other key by value. *)
let build_table store = function
  | [ ((Pred.Self _, _) | (_, Pred.Self _)) as key ] -> oid_table store key
  | keys -> value_table store keys

let hash_join db (cfg : Config.t) atoms ~build ~probe =
  let store = Db.store db in
  let probe_open = ref false in
  let probe_next = ref (fun () -> None) in
  let match_probe = ref (fun (_ : Env.t) -> ()) in
  let pending = Batch.Fifo.create cfg.Config.batch_size in
  let cat = concatenator () in
  (* Which conjuncts are keys depends on the build side's bindings, so
     the table is chosen at the first build tuple. *)
  let start build_scope =
    let keys, residual = classify_atoms build_scope atoms in
    let table = build_table store keys and residual = Eval.compile_pred store residual in
    (* Matches come out most recently built first; only key matches are
       merged. *)
    let rec emit penv = function
      | [] -> ()
      | benv :: rest ->
        let merged = concat_with cat benv penv in
        if residual merged then Batch.Fifo.push pending merged;
        emit penv rest
    in
    (match_probe := fun penv -> emit penv (table.matches penv));
    table
  in
  let open_ () =
    Batch.Fifo.clear pending;
    probe_open := false;
    match_probe := (fun _ -> ());
    let table = ref None and build_bytes = ref 0 in
    Iterator.iter_batches build (fun b ->
        let t =
          match !table with
          | Some t -> t
          | None ->
            let t = start (Env.bindings (Batch.get b 0)) in
            table := Some t;
            t
        in
        Batch.iter
          (fun env ->
            build_bytes := !build_bytes + env_bytes store env;
            t.add env)
          b);
    if !build_bytes > cfg.Config.memory_bytes then begin
      (* Both sides take the extra partitioning pass, in this order:
         build charge, whole probe drain, probe charge, then the first
         output. Each probe tuple is matched as the drain produces it and
         only the joined output is parked: matching and the residual read
         only materialized objects and charge no I/O, so the disk sees
         the sequence it would if matching ran after the probe charge. *)
      charge_spill store !build_bytes;
      let probe_bytes = ref 0 in
      Iterator.iter_batches probe
        (Batch.iter (fun env ->
             probe_bytes := !probe_bytes + env_bytes store env;
             !match_probe env));
      charge_spill store !probe_bytes;
      probe_next := fun () -> None
    end
    else
      probe_next :=
        fun () ->
          if not !probe_open then begin
            Iterator.open_ probe;
            probe_open := true
          end;
          Iterator.next_batch probe
  in
  (* Accumulate matches across probe batches until a full output batch
     is ready: selective joins would otherwise pass tiny batches
     downstream and forfeit the amortization. *)
  let rec next_batch () =
    match Batch.Fifo.pop_full pending with
    | Some _ as b -> b
    | None -> (
      match !probe_next () with
      | None -> Batch.Fifo.pop pending
      | Some pbatch ->
        Batch.iter !match_probe pbatch;
        next_batch ())
  in
  let close () =
    Batch.Fifo.clear pending;
    probe_next := (fun () -> None);
    match_probe := (fun _ -> ());
    if !probe_open then begin
      probe_open := false;
      Iterator.close probe
    end
  in
  Iterator.make_batched ~open_ ~next_batch ~close

(* ------------------------------------------------------------------ *)
(* Merge join over sorted inputs                                        *)

let merge_join db ~key_l ~key_r ~residual ~batch_size ~left ~right =
  let store = Db.store db in
  let kl = Eval.compile_operand store key_l and kr = Eval.compile_operand store key_r in
  let residual = Eval.compile_pred store residual in
  let cat = concatenator () in
  Iterator.of_list_thunk ~batch_size (fun () ->
      let ls = Array.of_list (Iterator.to_list left) in
      let rs = Array.of_list (Iterator.to_list right) in
      let out = ref [] in
      let i = ref 0 and j = ref 0 in
      let nl = Array.length ls and nr = Array.length rs in
      while !i < nl && !j < nr do
        let c = Value.compare (kl ls.(!i)) (kr rs.(!j)) in
        if c < 0 then incr i
        else if c > 0 then incr j
        else begin
          (* emit the cross product of the two equal-key blocks *)
          let key = kl ls.(!i) in
          let i0 = !i and j0 = !j in
          while !i < nl && Value.equal (kl ls.(!i)) key do
            incr i
          done;
          while !j < nr && Value.equal (kr rs.(!j)) key do
            incr j
          done;
          for a = i0 to !i - 1 do
            for b = j0 to !j - 1 do
              let merged = concat_with cat ls.(a) rs.(b) in
              if residual merged then out := merged :: !out
            done
          done
        end
      done;
      List.rev !out)

(* ------------------------------------------------------------------ *)

(* The OID a Mat link leads to from a tuple: the source binding's own,
   or the reference in its field; [Store.null] for none. *)
let link_target store src_ix = function
  | None -> Env.oid_at src_ix
  | Some f ->
    let col = Store.reader store f in
    fun env -> Store.ref_cell col (Env.obj_at src_ix env)

let pointer_join db ~src ~field ~out ~residual child =
  let store = Db.store db in
  let ext = extender out in
  let residual = Eval.compile_pred store residual in
  let target = link_target store (Env.index src) field in
  Iterator.make_batched
    ~open_:(fun () -> Iterator.open_ child)
    ~next_batch:(fun () ->
      match Iterator.next_batch child with
      | None -> None
      | Some b ->
        (* Resolve the whole batch's references, then dereference them in
           order; tuples with Null references are dropped. *)
        let n = Batch.length b in
        let envs = Array.make n Env.empty and oids = Array.make n 0 in
        let k = ref 0 in
        Batch.iter
          (fun env ->
            let oid = target env in
            if oid <> Store.null then begin
              envs.(!k) <- env;
              oids.(!k) <- oid;
              incr k
            end)
          b;
        let joined =
          Array.init !k (fun i ->
              Store.fetch store oids.(i);
              extend_with ext envs.(i) (Env.in_memory oids.(i)))
        in
        Some (Batch.filter residual (Batch.of_array joined)))
    ~close:(fun () -> Iterator.close child)

(* ------------------------------------------------------------------ *)
(* Assembly: windowed, elevator-ordered dereferencing                   *)

(* One path's resolution step over a window ([Env.t option array]):
   materializes [ap_out] in every tuple, dropping tuples with Null
   references. The slot is replaced where the binding already exists and
   appended otherwise. *)
let path_resolver store (path : Physical.assembly_path) =
  let out = path.Physical.ap_out in
  let out_position = Env.memo (fun schema -> Env.position schema out) and ext = extender out in
  let target = link_target store (Env.index path.Physical.ap_src) path.Physical.ap_field in
  let reference env =
    let oid = target env in
    if oid = Store.null then None else Some oid
  in
  let rebind (env : Env.t) oid =
    match Env.get out_position env.Env.schema with
    | -1 -> extend_with ext env (Env.in_memory oid)
    | i -> Env.replace env i (Env.in_memory oid)
  in
  fun window ->
    let refs = Array.map (fun env -> Option.bind env reference) window in
    (* Elevator: fetch in ascending page address, each reference's
       address computed once; references on one page keep their window
       order. *)
    let order =
      refs |> Array.to_list
      |> List.mapi (fun i r -> Option.map (fun oid -> (Store.location store oid, i, oid)) r)
      |> List.filter_map Fun.id
      |> List.stable_sort (fun (a, i, _) (b, j, _) ->
             match Int.compare a b with 0 -> Int.compare i j | c -> c)
    in
    List.iter (fun (_, _, oid) -> Store.fetch store oid) order;
    Array.mapi
      (fun i env ->
        match env, refs.(i) with
        | Some env, Some oid -> Some (rebind env oid)
        | _ -> None)
      window

let assembly db ~paths ~window ?(warm = None) child =
  let store = Db.store db in
  let window = max 1 window in
  let resolvers = List.map (path_resolver store) paths in
  let exhausted = ref false in
  Iterator.make_batched
    ~open_:(fun () ->
      exhausted := false;
      (* warm start (paper Lesson 7): stream the referenced collection
         into the buffer pool before assembling, so the per-reference
         faults below become hits *)
      (match warm with
      | Some coll -> Store.scan store ~coll (fun _ -> ())
      | None -> ());
      Iterator.open_ child)
    ~next_batch:(fun () ->
      if !exhausted then None
      else begin
        let batch = ref [] in
        let n = ref 0 in
        while (not !exhausted) && !n < window do
          match Iterator.next child with
          | None -> exhausted := true
          | Some env ->
            batch := env :: !batch;
            incr n
        done;
        if !batch = [] then None
        else begin
          let arr = Array.of_list (List.rev_map Option.some !batch) in
          let arr = List.fold_left (fun arr resolve -> resolve arr) arr resolvers in
          (* one output batch per assembly window *)
          Some (Batch.of_list (Array.to_list arr |> List.filter_map Fun.id))
        end
      end)
    ~close:(fun () -> Iterator.close child)

(* ------------------------------------------------------------------ *)

let alg_project ps child =
  let used =
    List.concat_map (fun (p : Logical.proj) -> Pred.bindings_of_operand p.Logical.p_expr) ps
  in
  (* the narrowed schema and kept positions, or None when every binding
     is used and tuples pass through *)
  let narrowed =
    Env.memo (fun schema ->
        let kept = Env.positions (fun b -> List.mem b used) schema in
        if Array.length kept = Array.length schema then None
        else Some (Array.map (fun i -> schema.(i)) kept, kept))
  in
  let narrow (env : Env.t) =
    match Env.get narrowed env.Env.schema with
    | None -> env
    | Some (schema, kept) -> Env.select schema kept env
  in
  Iterator.make_batched
    ~open_:(fun () -> Iterator.open_ child)
    ~next_batch:(fun () -> Option.map (Batch.map narrow) (Iterator.next_batch child))
    ~close:(fun () -> Iterator.close child)

let alg_unnest db ~src ~field ~out ~batch_size child =
  let src_ix = Env.index src and col = Store.reader (Db.store db) field and ext = extender out in
  let pending = Batch.Fifo.create batch_size in
  let expand (env : Env.t) =
    let schema = Env.get ext env.Env.schema in
    Store.iter_set col (Env.obj_at src_ix env) (fun oid ->
        Batch.Fifo.push pending (Env.extend schema env (Env.reference oid)))
  in
  (* Same accumulation as the hash join: expansions of successive child
     batches coalesce into full output batches. *)
  let rec next_batch () =
    match Batch.Fifo.pop_full pending with
    | Some _ as b -> b
    | None -> (
      match Iterator.next_batch child with
      | None -> Batch.Fifo.pop pending
      | Some b ->
        Batch.iter expand b;
        next_batch ())
  in
  Iterator.make_batched
    ~open_:(fun () ->
      Batch.Fifo.clear pending;
      Iterator.open_ child)
    ~next_batch
    ~close:(fun () ->
      Batch.Fifo.clear pending;
      Iterator.close child)

(* ------------------------------------------------------------------ *)
(* Set operations (by tuple identity: the OIDs of all bindings).
   A tuple's bindings follow its branch's join order, and the two inputs
   of a set operation are free to join in different orders — the key
   must be canonical across branches, so it lists the OIDs in binding
   name order. The order is computed once per input schema. *)

let identity_key () =
  let order =
    Env.memo (fun schema ->
        Array.map (Env.position schema) (Array.of_list (List.sort compare (Array.to_list schema))))
  in
  fun (env : Env.t) ->
    Array.map (fun i -> Env.slot_oid env.Env.slots.(i)) (Env.get order env.Env.schema)

let hash_union ~batch_size left right =
  let key = identity_key () in
  Iterator.of_list_thunk ~batch_size (fun () ->
      let seen = Hashtbl.create 64 in
      let emit acc env =
        let k = key env in
        if Hashtbl.mem seen k then acc
        else begin
          Hashtbl.add seen k ();
          env :: acc
        end
      in
      let acc = List.fold_left emit [] (Iterator.to_list left) in
      let acc = List.fold_left emit acc (Iterator.to_list right) in
      List.rev acc)

(* Left tuples, first occurrence only, whose identity is ([keep] = true)
   or is not ([keep] = false) among the right input's. *)
let hash_semi ~keep ~batch_size left right =
  let key = identity_key () in
  Iterator.of_list_thunk ~batch_size (fun () ->
      let rights = Hashtbl.create 64 in
      List.iter (fun env -> Hashtbl.replace rights (key env) ()) (Iterator.to_list right);
      let seen = Hashtbl.create 64 in
      Iterator.to_list left
      |> List.filter (fun env ->
             let k = key env in
             Bool.equal (Hashtbl.mem rights k) keep
             && not (Hashtbl.mem seen k)
             &&
             (Hashtbl.add seen k ();
              true)))

let hash_intersect ~batch_size left right = hash_semi ~keep:true ~batch_size left right

let hash_difference ~batch_size left right = hash_semi ~keep:false ~batch_size left right

(* Keys are computed once per tuple (decorate, stable sort, undecorate):
   the same comparisons as sorting on the key directly, so the same
   order. *)
let sort db (o : Open_oodb.Physprop.order) ~batch_size child =
  let b = o.Open_oodb.Physprop.ord_binding in
  let key =
    match o.Open_oodb.Physprop.ord_field with
    | Some f -> Eval.compile_operand (Db.store db) (Pred.Field (b, f))
    | None ->
      let ix = Env.index b in
      fun env -> Value.Ref (Env.oid_at ix env)
  in
  Iterator.of_list_thunk ~batch_size (fun () ->
      match Iterator.to_list child with
      | ([] | [ _ ]) as envs -> envs
      | envs ->
        envs
        |> List.map (fun env -> (key env, env))
        |> List.stable_sort (fun (a, _) (b, _) -> Value.compare a b)
        |> List.map snd)
