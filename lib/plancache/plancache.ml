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
module Config = Oodb_cost.Config

type entry = {
  e_plan : Engine.plan option;
  e_stats : Engine.stats;
  e_reads : Catalog.reads;  (* the statistics its search read *)
  e_feedback : Config.feedback option;  (* the tables it was planned under *)
}

(* Keyed on the key string itself, so a hit costs one table lookup and
   no digest. *)
type t = entry Lru.t

(* An entry serves a lookup while every statistic its search read holds
   its version, under the same feedback tables. [Feedback.hook] builds
   fresh tables per install and nothing writes to them afterwards, so
   tables are compared physically. *)
let current cat (options : Options.t) e =
  Catalog.reads_current cat e.e_reads
  && Option.equal ( == ) e.e_feedback options.Options.config.Config.feedback

let default_capacity = 256

let create ?(capacity = default_capacity) () = Lru.create ~capacity

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  entries : int;
  capacity : int;
}

let stats t =
  let c = Lru.counters t in
  { hits = c.Lru.hits;
    misses = c.Lru.misses;
    insertions = c.Lru.insertions;
    evictions = c.Lru.evictions;
    entries = Lru.length t;
    capacity = Lru.capacity t }

let stats_json s =
  Json.Obj
    [ ("hits", Json.Int s.hits);
      ("misses", Json.Int s.misses);
      ("insertions", Json.Int s.insertions);
      ("evictions", Json.Int s.evictions);
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

let optimize ?(options = Options.default) ?(required = Physprop.empty) ?registry ?spans
    (t : t) cat expr =
  let t0 = Clock.now () in
  let fp =
    Span.with_span spans ~cat:"plancache" "fingerprint" (fun () ->
        Fingerprint.make ~options ~required expr)
  in
  let found =
    Span.with_span spans ~cat:"plancache" "cache-lookup" (fun () ->
        Lru.find t (fp :> string) current cat options)
  in
  (* Latency to a hit/miss verdict: fingerprinting plus the lookup. *)
  (match registry with
  | None -> ()
  | Some r -> Metrics.observe_hist r "plancache/lookup_seconds" (Clock.now () -. t0));
  match found with
  | Some e ->
    mincr registry "plancache/hit";
    { plan = e.e_plan; stats = e.e_stats; opt_seconds = Clock.now () -. t0; cached = true }
  | None ->
    mincr registry "plancache/miss";
    let cold, reads =
      Catalog.record_reads cat (fun () ->
          Optimizer.optimize ~options ~required
            ?trace:(Option.map derivation_sink registry)
            ?spans cat expr)
    in
    let plan = cold.Optimizer.plan and stats = cold.Optimizer.stats in
    (* a stale entry under this key is replaced in place *)
    let evicted =
      Lru.add t (fp :> string)
        { e_plan = plan;
          e_stats = stats;
          e_reads = reads;
          e_feedback = options.Options.config.Config.feedback }
    in
    mincr registry "plancache/insert";
    if Option.is_some evicted then mincr registry "plancache/eviction";
    { plan; stats; opt_seconds = Clock.now () -. t0; cached = false }
