module Value = Oodb_storage.Value
module Store = Oodb_storage.Store
module Disk = Oodb_storage.Disk
module Buffer_pool = Oodb_storage.Buffer_pool
module Logical = Oodb_algebra.Logical
module Pred = Oodb_algebra.Pred
module Physical = Open_oodb.Physical
module Engine = Open_oodb.Model.Engine
module Config = Oodb_cost.Config

type row = (string * Value.t) list

(* Debug mode: refuse plans that fail the static linter before running
   them — a lint violation at this point means a hand-built or corrupted
   plan (the optimizer already checks its own output). *)
let debug_default =
  match Sys.getenv_opt "OODB_DEBUG" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let lint_or_refuse db plan =
  match Open_oodb.Planlint.plan (Db.catalog db) plan with
  | Ok () -> ()
  | Error vs ->
    invalid_arg
      (Format.asprintf "Executor: refusing invalid plan:@.%a"
         Open_oodb.Planlint.pp_violations vs)

let rec iterator ?(config = Config.default) ?(wrap = fun _plan it -> it) db
    (plan : Engine.plan) =
  let child n =
    let cp = List.nth plan.Engine.children n in
    let it = iterator ~config ~wrap db cp in
    (* Carry only the objects the child promises in memory. *)
    Operators.trim
      (Open_oodb.Physprop.Bset.elements cp.Engine.delivered.Open_oodb.Physprop.in_memory)
      it
  in
  let bs = max 1 config.Config.batch_size in
  let it =
    match plan.Engine.alg, plan.Engine.children with
    | Physical.File_scan { coll; binding }, [] ->
      Operators.file_scan db ~coll ~binding ~batch_size:bs
    | Physical.Index_scan { coll; binding; index; key; residual; derefs }, [] ->
      Operators.index_scan db ~coll ~binding ~index ~key ~residual ~derefs ~batch_size:bs
    | Physical.Filter pred, [ _ ] -> Operators.filter db pred (child 0)
    | Physical.Hash_join pred, [ _; _ ] ->
      Operators.hash_join db config pred ~build:(child 0) ~probe:(child 1)
    | Physical.Merge_join { key_l; key_r; residual }, [ _; _ ] ->
      Operators.merge_join db ~key_l ~key_r ~residual ~batch_size:bs ~left:(child 0)
        ~right:(child 1)
    | Physical.Pointer_join { src; field; out; residual }, [ _ ] ->
      Operators.pointer_join db ~src ~field ~out ~residual (child 0)
    | Physical.Assembly { paths; window; warm }, [ _ ] ->
      Operators.assembly db ~paths ~window ~warm (child 0)
    | Physical.Alg_project ps, [ _ ] -> Operators.alg_project ps (child 0)
    | Physical.Alg_unnest { src; field; out }, [ _ ] ->
      Operators.alg_unnest db ~src ~field ~out ~batch_size:bs (child 0)
    | Physical.Hash_union, [ _; _ ] ->
      Operators.hash_union ~batch_size:bs (child 0) (child 1)
    | Physical.Hash_intersect, [ _; _ ] ->
      Operators.hash_intersect ~batch_size:bs (child 0) (child 1)
    | Physical.Hash_difference, [ _; _ ] ->
      Operators.hash_difference ~batch_size:bs (child 0) (child 1)
    | Physical.Sort o, [ _ ] -> Operators.sort db o ~batch_size:bs (child 0)
    | _ -> invalid_arg "Executor.iterator: malformed plan (operator arity)"
  in
  wrap plan it

(* Row extraction, compiled once per plan: a root Alg-Project evaluates
   its expressions (each compiled once); any other root yields
   binding/OID pairs, with the binding names taken once per schema. *)
let row_function db (plan : Engine.plan) : Env.t -> row =
  match plan.Engine.alg with
  | Physical.Alg_project ps ->
    (* A column hands out its last (name, value) pair again while the
       value is physically the same: a value repeated down a column,
       such as an outer object's field beside an unnested set, is paired
       once. *)
    let column (p : Logical.proj) =
      let name = p.Logical.p_name and value = Eval.compile_operand (Db.store db) p.Logical.p_expr in
      let last = ref (name, Value.Null) in
      fun env ->
        let v = value env in
        if v == snd !last then !last
        else begin
          let pair = (name, v) in
          last := pair;
          pair
        end
    in
    let columns = List.map column ps in
    let rec row env = function
      | [] -> []
      | column :: rest ->
        let pair = column env in
        pair :: row env rest
    in
    fun env -> row env columns
  | _ ->
    (* One column per binding of each schema the root emits; like a
       projected column, it hands out its last (name, Ref) pair again
       while the OID repeats, as an outer binding's does beside the
       members of an unnested set. *)
    let columns = Env.memo (Array.map (fun name -> ref (name, Value.Null))) in
    fun (env : Env.t) ->
      let columns = Env.get columns env.Env.schema in
      let rec row i =
        if i = Array.length columns then []
        else
          let oid = Env.slot_oid env.Env.slots.(i) and last = columns.(i) in
          let pair =
            match !last with
            | _, Value.Ref o when Int.equal o oid -> !last
            | name, _ ->
              let pair = (name, Value.Ref oid) in
              last := pair;
              pair
          in
          pair :: row (i + 1)
      in
      row 0

let rows_of db plan envs = List.map (row_function db plan) envs

(* Each batch becomes rows as it arrives, so no tuple outlives its
   batch. The rows are kept in one array per batch, last batch first,
   and listed in order at the end: one array doubled as it fills raised
   the peak heap. *)
let run ?(verify = debug_default) ?config ?wrap db plan =
  if verify then lint_or_refuse db plan;
  let row = row_function db plan in
  let batches = ref [] in
  Iterator.iter_batches (iterator ?config ?wrap db plan) (fun b ->
      batches := Array.init (Batch.length b) (fun i -> row (Batch.get b i)) :: !batches);
  List.fold_left (fun acc rows -> Array.fold_right List.cons rows acc) [] !batches

type io_report = {
  seq_reads : int;
  rand_reads : int;
  writes : int;
  buffer_hits : int;
  buffer_misses : int;
  buffer_evictions : int;
  rows : int;
  simulated_seconds : float;
}

(* A random read decomposes into settle/transfer (the assembly floor)
   plus seek time scaled by the actual arm travel, so elevator-ordered
   fetch patterns are measurably cheaper. Writes (spill partitions) are
   sequential. *)
let simulated_seconds_of (config : Config.t) (d : Disk.stats) =
  (float_of_int d.Disk.seq_reads *. config.Config.seq_io)
  +. (float_of_int d.Disk.rand_reads *. config.Config.asm_io_floor)
  +. (d.Disk.seek_units *. (config.Config.rand_io -. config.Config.asm_io_floor))
  +. (float_of_int d.Disk.writes *. config.Config.seq_io)

let report_of ~(config : Config.t) ~rows (d : Disk.stats) (b : Buffer_pool.stats) =
  { seq_reads = d.Disk.seq_reads;
    rand_reads = d.Disk.rand_reads;
    writes = d.Disk.writes;
    buffer_hits = b.Buffer_pool.hits;
    buffer_misses = b.Buffer_pool.misses;
    buffer_evictions = b.Buffer_pool.evictions;
    rows;
    simulated_seconds = simulated_seconds_of config d }

let run_measured ?verify ?(config = Config.default) ?wrap db plan =
  let store = Db.store db in
  Disk.reset_stats (Store.disk store);
  Buffer_pool.reset_stats (Store.buffer store);
  Buffer_pool.flush (Store.buffer store);
  let rows = run ?verify ~config ?wrap db plan in
  let d = Disk.stats (Store.disk store) in
  let b = Buffer_pool.stats (Store.buffer store) in
  (rows, report_of ~config ~rows:(List.length rows) d b)

let pp_report ppf r =
  Format.fprintf ppf
    "rows=%d io: %d seq + %d rand + %d write (buffer: %d hit / %d miss / %d evict), ~%.2fs \
     simulated disk"
    r.rows r.seq_reads r.rand_reads r.writes r.buffer_hits r.buffer_misses r.buffer_evictions
    r.simulated_seconds
