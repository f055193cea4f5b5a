module Json = Oodb_util.Json

(* ------------------------------------------------------------------ *)
(* Log-bucketed histograms                                              *)

(* Geometric bucket boundaries: bucket k holds values in
   (bound.(k-1), bound.(k)], bucket 0 everything <= histo_lo, and a final
   overflow bucket everything above the top boundary. 1 µs .. ~9 min in
   factor-of-two steps covers every latency and batch-size series the
   registry records. *)
let histo_lo = 1e-6

let histo_factor = 2.0

let histo_buckets = 40

let bucket_bounds =
  Array.init (histo_buckets + 1) (fun k ->
      if k = histo_buckets then Float.infinity
      else histo_lo *. (histo_factor ** float_of_int k))

let bucket_of v =
  let rec find k = if v <= bucket_bounds.(k) then k else find (k + 1) in
  find 0

type histo = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_counts : int array; (* histo_buckets + 1 slots; the last is overflow *)
}

type hsnap = {
  count : int;
  sum : float;
  min : float;
  max : float;
  counts : int array;
}

(* Percentile from the buckets: the bucket containing the rank'th sample
   gives an upper bound, clamped into the exactly-tracked [min, max] — so
   a single sample (or all samples equal, or the rank landing in the
   overflow bucket) yields the exact observed value. An empty histogram
   has no percentiles: [None], not a NaN sentinel every caller would
   have to remember to guard against. *)
let percentile (h : hsnap) q =
  if h.count = 0 then None
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let rank = Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int h.count))) in
    let k = ref 0 and cum = ref h.counts.(0) in
    while !cum < rank do
      incr k;
      cum := !cum + h.counts.(!k)
    done;
    Some (Float.max h.min (Float.min h.max bucket_bounds.(!k)))
  end

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)

type metric =
  | Mcounter of int ref
  | Mgauge of float ref
  | Mtimer of { mutable total : float; mutable count : int; mutable max : float }
  | Mhisto of histo

type t = (string, metric) Hashtbl.t

let create () : t = Hashtbl.create 64

let kind_name = function
  | Mcounter _ -> "counter"
  | Mgauge _ -> "gauge"
  | Mtimer _ -> "timer"
  | Mhisto _ -> "histogram"

let kind_clash name got want =
  invalid_arg
    (Printf.sprintf "Metrics: %S is a %s, used as a %s" name (kind_name got) want)

let incr ?(by = 1) t name =
  if by < 0 then invalid_arg "Metrics.incr: negative increment";
  match Hashtbl.find_opt t name with
  | None -> Hashtbl.replace t name (Mcounter (ref by))
  | Some (Mcounter r) -> r := !r + by
  | Some m -> kind_clash name m "counter"

let set t name v =
  match Hashtbl.find_opt t name with
  | None -> Hashtbl.replace t name (Mgauge (ref v))
  | Some (Mgauge r) -> r := v
  | Some m -> kind_clash name m "gauge"

let observe t name dt =
  match Hashtbl.find_opt t name with
  | None -> Hashtbl.replace t name (Mtimer { total = dt; count = 1; max = dt })
  | Some (Mtimer tm) ->
    tm.total <- tm.total +. dt;
    tm.count <- tm.count + 1;
    if dt > tm.max then tm.max <- dt
  | Some m -> kind_clash name m "timer"

let histo_observe h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let k = bucket_of v in
  h.h_counts.(k) <- h.h_counts.(k) + 1

let observe_hist t name v =
  match Hashtbl.find_opt t name with
  | None ->
    let h =
      { h_count = 0;
        h_sum = 0.;
        h_min = Float.infinity;
        h_max = Float.neg_infinity;
        h_counts = Array.make (histo_buckets + 1) 0 }
    in
    histo_observe h v;
    Hashtbl.replace t name (Mhisto h)
  | Some (Mhisto h) -> histo_observe h v
  | Some m -> kind_clash name m "histogram"

type value =
  | Counter of int
  | Gauge of float
  | Timer of { total : float; count : int; max : float }
  | Histogram of hsnap

type snapshot = (string * value) list

let snapshot t =
  Hashtbl.fold
    (fun name m acc ->
      let v =
        match m with
        | Mcounter r -> Counter !r
        | Mgauge r -> Gauge !r
        | Mtimer tm -> Timer { total = tm.total; count = tm.count; max = tm.max }
        | Mhisto h ->
          Histogram
            { count = h.h_count;
              sum = h.h_sum;
              min = h.h_min;
              max = h.h_max;
              counts = Array.copy h.h_counts }
      in
      (name, v) :: acc)
    t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find snap name = List.assoc_opt name snap

let diff ~before ~after =
  List.filter_map
    (fun (name, av) ->
      match av, find before name with
      | v, None -> Some (name, v)
      | Counter a, Some (Counter b) ->
        let d = a - b in
        if d = 0 then None else Some (name, Counter d)
      | Gauge _, Some (Gauge _) -> Some (name, av)
      | Timer a, Some (Timer b) ->
        let count = a.count - b.count in
        if count = 0 then None
        else Some (name, Timer { total = a.total -. b.total; count; max = a.max })
      | Histogram a, Some (Histogram b) ->
        let count = a.count - b.count in
        if count = 0 then None
        else
          Some
            ( name,
              (* bucket counts subtract; min/max stay the [after] values
                 (exact window extrema are not recoverable from deltas) *)
              Histogram
                { count;
                  sum = a.sum -. b.sum;
                  min = a.min;
                  max = a.max;
                  counts = Array.mapi (fun i c -> c - b.counts.(i)) a.counts } )
      | _, Some _ ->
        (* Unreachable for snapshots of the same registry: a name keeps
           its kind for the registry's lifetime. *)
        invalid_arg (Printf.sprintf "Metrics.diff: %S changed kind" name))
    after

let scoped t f =
  let before = snapshot t in
  let v = f () in
  let after = snapshot t in
  (v, diff ~before ~after)

let pct_json h q =
  match percentile h q with None -> Json.Null | Some v -> Json.float v

let histo_json (h : hsnap) =
  (* only occupied buckets; the overflow bucket's bound encodes as null
     (non-finite float) *)
  let buckets =
    Array.to_list (Array.mapi (fun k n -> (bucket_bounds.(k), n)) h.counts)
    |> List.filter_map (fun (le, n) ->
           if n > 0 then Some (Json.Obj [ ("le", Json.float le); ("count", Json.Int n) ])
           else None)
  in
  Json.Obj
    [ ("count", Json.Int h.count);
      ("sum", Json.float h.sum);
      ("min", Json.float h.min);
      ("max", Json.float h.max);
      ("p50", pct_json h 0.50);
      ("p95", pct_json h 0.95);
      ("p99", pct_json h 0.99);
      ("buckets", Json.List buckets) ]

let to_json snap =
  Json.Obj
    (List.map
       (fun (name, v) ->
         ( name,
           match v with
           | Counter n -> Json.Int n
           | Gauge g -> Json.float g
           | Timer { total; count; max } ->
             Json.Obj
               [ ("total", Json.float total);
                 ("count", Json.Int count);
                 ("max", Json.float max) ]
           | Histogram h -> histo_json h ))
       snap)

let pp ppf snap =
  List.iter
    (fun (name, v) ->
      match v with
      | Counter n -> Format.fprintf ppf "%s %d@." name n
      | Gauge g -> Format.fprintf ppf "%s %g@." name g
      | Timer { total; count; max } ->
        Format.fprintf ppf "%s total=%.6fs count=%d max=%.6fs@." name total count max
      | Histogram h ->
        let pct q = match percentile h q with None -> Float.nan | Some v -> v in
        Format.fprintf ppf "%s count=%d p50=%g p95=%g p99=%g max=%g@." name h.count
          (pct 0.50) (pct 0.95) (pct 0.99) h.max)
    snap
