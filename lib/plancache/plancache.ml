module Engine = Open_oodb.Model.Engine
module Optimizer = Open_oodb.Optimizer
module Catalog = Oodb_catalog.Catalog
module Logical = Oodb_algebra.Logical
module Options = Open_oodb.Options
module Physprop = Open_oodb.Physprop
module Metrics = Oodb_obs.Metrics
module Span = Oodb_obs.Span
module Json = Oodb_util.Json
module Clock = Oodb_util.Clock

type quality = {
  q_execs : int;
  q_max_qerror : float;
  q_mean_qerror : float;
  q_last_epoch : int;
}

type entry = {
  e_plan : Engine.plan option;
  e_stats : Engine.stats;
  e_quality : quality option;
}

type t = {
  mem : entry Lru.t;
  mutable qerror_evictions : int;
}

let default_capacity = 256

let create ?(capacity = default_capacity) () =
  { mem = Lru.create ~capacity; qerror_evictions = 0 }

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)

(* Keyed on the key string itself, so a hit costs one table lookup and
   no digest. [qerror_limit]: an entry whose recorded quality shows a
   worse max q-error was mispriced badly enough that serving it again
   just repeats the mistake, so the lookup removes it and misses, and the
   caller re-plans (with corrected statistics, when feedback is
   installed). *)
let lookup ?qerror_limit t (fp : Fingerprint.t) =
  match qerror_limit with
  | None -> Lru.find t.mem (fp :> string)
  | Some limit ->
    let keep e =
      match e.e_quality with
      | Some q when q.q_max_qerror > limit ->
        t.qerror_evictions <- t.qerror_evictions + 1;
        false
      | Some _ | None -> true
    in
    Lru.find ~keep t.mem (fp :> string)

(* ------------------------------------------------------------------ *)
(* Plan quality                                                         *)

let merge_quality epoch ~max_qerror ~mean_qerror = function
  | None ->
    { q_execs = 1;
      q_max_qerror = max_qerror;
      q_mean_qerror = mean_qerror;
      q_last_epoch = epoch }
  | Some q ->
    let n = float_of_int q.q_execs in
    { q_execs = q.q_execs + 1;
      q_max_qerror = Float.max q.q_max_qerror max_qerror;
      q_mean_qerror = ((q.q_mean_qerror *. n) +. mean_qerror) /. (n +. 1.);
      q_last_epoch = epoch }

let note_execution t (fp : Fingerprint.t) ~epoch ~max_qerror ~mean_qerror =
  let updated e =
    { e with
      e_quality = Some (merge_quality epoch ~max_qerror ~mean_qerror e.e_quality) }
  in
  Lru.update t.mem (fp :> string) updated

let quality_json q =
  Json.Obj
    [ ("executions", Json.Int q.q_execs);
      ("max_qerror", Json.float q.q_max_qerror);
      ("mean_qerror", Json.float q.q_mean_qerror);
      ("last_validated_epoch", Json.Int q.q_last_epoch) ]

let entries t = List.map snd (Lru.items t.mem)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  qerror_evictions : int;
  entries : int;
  capacity : int;
}

let stats t =
  let c = Lru.counters t.mem in
  { hits = c.Lru.hits;
    misses = c.Lru.misses;
    insertions = c.Lru.insertions;
    evictions = c.Lru.evictions;
    qerror_evictions = t.qerror_evictions;
    entries = Lru.length t.mem;
    capacity = Lru.capacity t.mem }

let stats_json s =
  Json.Obj
    [ ("hits", Json.Int s.hits);
      ("misses", Json.Int s.misses);
      ("insertions", Json.Int s.insertions);
      ("evictions", Json.Int s.evictions);
      ("qerror_evictions", Json.Int s.qerror_evictions);
      ("entries", Json.Int s.entries);
      ("capacity", Json.Int s.capacity) ]

(* ------------------------------------------------------------------ *)
(* Cache-aware optimization                                            *)

type outcome = {
  plan : Engine.plan option;
  stats : Engine.stats;
  opt_seconds : float;
  cached : bool;
}

(* [Group_created] fires exactly once per memo group, and creating a
   group is the only point the engine derives logical properties — so
   this counter is the per-call derivation count the regression tests
   assert on (zero on a cache hit, which skips the engine entirely). *)
let derivation_sink registry (ev : Engine.event) =
  match ev with
  | Engine.Group_created _ -> Metrics.incr registry "plancache/derivations"
  | _ -> ()

let mincr registry name =
  match registry with None -> () | Some r -> Metrics.incr r name

let mhist registry name v =
  match registry with None -> () | Some r -> Metrics.observe_hist r name v

let trace_of registry = Option.map derivation_sink registry

let outcome_of_cold (o : Optimizer.outcome) =
  { plan = o.Optimizer.plan;
    stats = o.Optimizer.stats;
    opt_seconds = o.Optimizer.opt_seconds;
    cached = false }

let entry_of_cold (o : Optimizer.outcome) =
  { e_plan = o.Optimizer.plan;
    e_stats = o.Optimizer.stats;
    e_quality = None }

let optimize ?(options = Options.default) ?(required = Physprop.empty) ?qerror_limit
    ?registry ?spans (t : t) cat expr =
  if not options.Options.cache then begin
    mincr registry "plancache/bypass";
    outcome_of_cold
      (Optimizer.optimize ~options ~required ?trace:(trace_of registry) ?spans cat expr)
  end
  else begin
    let t0 = Clock.now () in
    let qevict_before = t.qerror_evictions in
    let fp =
      Span.with_span spans ~cat:"plancache" "fingerprint" (fun () ->
          Fingerprint.make ~catalog:cat ~options ~required expr)
    in
    let found =
      Span.with_span spans ~cat:"plancache" "cache-lookup" (fun () ->
          lookup ?qerror_limit t fp)
    in
    (* Latency to a hit/miss verdict: fingerprinting plus the lookup. *)
    mhist registry "plancache/lookup_seconds" (Clock.now () -. t0);
    if t.qerror_evictions > qevict_before then
      mincr registry "plancache/qerror_eviction";
    match found with
    | Some e ->
      mincr registry "plancache/hit";
      { plan = e.e_plan; stats = e.e_stats; opt_seconds = Clock.now () -. t0; cached = true }
    | None ->
      mincr registry "plancache/miss";
      let cold =
        Optimizer.optimize ~options ~required ?trace:(trace_of registry) ?spans cat expr
      in
      let evicted = Lru.add t.mem (fp :> string) (entry_of_cold cold) in
      mincr registry "plancache/insert";
      if Option.is_some evicted then mincr registry "plancache/eviction";
      { (outcome_of_cold cold) with opt_seconds = Clock.now () -. t0 }
  end

let optimize_all ?(options = Options.default) ?(required = Physprop.empty) ?registry ?spans
    (t : t) cat qs =
  if not options.Options.cache then begin
    List.iter (fun _ -> mincr registry "plancache/bypass") qs;
    List.map outcome_of_cold
      (Optimizer.optimize_all ~options ~required ?trace:(trace_of registry) ?spans cat qs)
  end
  else begin
    (* Serve hits individually; batch every miss through one shared memo
       (memo-level MQO), then fill results back in input order. *)
    let n = List.length qs in
    let results : outcome option array = Array.make n None in
    let misses =
      List.concat
        (List.mapi
           (fun i q ->
             let t0 = Clock.now () in
             let fp =
               Span.with_span spans ~cat:"plancache" "fingerprint" (fun () ->
                   Fingerprint.make ~catalog:cat ~options ~required q)
             in
             let found =
               Span.with_span spans ~cat:"plancache" "cache-lookup" (fun () -> lookup t fp)
             in
             mhist registry "plancache/lookup_seconds" (Clock.now () -. t0);
             match found with
             | Some e ->
               mincr registry "plancache/hit";
               results.(i) <-
                 Some
                   { plan = e.e_plan;
                     stats = e.e_stats;
                     opt_seconds = Clock.now () -. t0;
                     cached = true };
               []
             | None ->
               mincr registry "plancache/miss";
               [ (i, q, fp, Clock.now () -. t0) ])
           qs)
    in
    (match misses with
    | [] -> ()
    | _ :: _ ->
      let batch =
        Optimizer.optimize_batch ~options ?trace:(trace_of registry) ?spans cat
          (List.map (fun (_, q, _, _) -> (q, required)) misses)
      in
      List.iter2
        (fun (i, _q, fp, lookup_seconds) (o : Optimizer.outcome) ->
          let evicted = Lru.add t.mem (fp : Fingerprint.t :> string) (entry_of_cold o) in
          mincr registry "plancache/insert";
          if Option.is_some evicted then mincr registry "plancache/eviction";
          results.(i) <-
            Some { (outcome_of_cold o) with opt_seconds = lookup_seconds +. o.Optimizer.opt_seconds })
        misses batch;
      (match registry with
      | None -> ()
      | Some r ->
        Metrics.incr ~by:(List.length misses) r "plancache/mqo/roots";
        (match List.rev batch with
        | last :: _ -> Metrics.set r "plancache/mqo/groups" (float_of_int last.Optimizer.stats.Engine.groups)
        | [] -> ())));
    Array.to_list results
    |> List.map (function Some o -> o | None -> invalid_arg "Plancache.optimize_all: unfilled slot")
  end
