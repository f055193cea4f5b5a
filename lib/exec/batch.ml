(* A bounded batch of tuples: a backing array plus an optional selection
   vector. Filters refine the selection vector in place of copying the
   backing array, so a chain of selective operators over one batch costs
   one array of indices per filter and zero tuple copies. *)

type t = {
  data : Env.t array;
  sel : int array option; (* live indexes into [data], in order; None = all *)
}

let empty = { data = [||]; sel = None }

let of_array data = { data; sel = None }

let of_list l = of_array (Array.of_list l)

let length t = match t.sel with Some s -> Array.length s | None -> Array.length t.data

let is_empty t = length t = 0

let get t i = match t.sel with Some s -> t.data.(s.(i)) | None -> t.data.(i)

let iter f t =
  match t.sel with
  | None -> Array.iter f t.data
  | Some s -> Array.iter (fun i -> f t.data.(i)) s

let fold_right f t init =
  match t.sel with
  | None -> Array.fold_right f t.data init
  | Some s -> Array.fold_right (fun i acc -> f t.data.(i) acc) s init

let to_list t = fold_right List.cons t []

(* The input batch itself when [f] returns every tuple unchanged
   (physically); otherwise a dense copy, allocated at the first change. *)
let map f t =
  let n = length t in
  let rec unchanged i =
    if i = n then t
    else
      let env = get t i in
      let env' = f env in
      if env' == env then unchanged (i + 1)
      else begin
        let data = Array.make n env' in
        for j = 0 to i - 1 do
          data.(j) <- get t j
        done;
        for j = i + 1 to n - 1 do
          data.(j) <- f (get t j)
        done;
        { data; sel = None }
      end
  in
  unchanged 0

let filter p t =
  let n = length t in
  let sel = Array.make n 0 in
  let k = ref 0 in
  (match t.sel with
  | None ->
    for i = 0 to n - 1 do
      if p t.data.(i) then begin
        sel.(!k) <- i;
        incr k
      end
    done
  | Some s ->
    for i = 0 to n - 1 do
      if p t.data.(s.(i)) then begin
        sel.(!k) <- s.(i);
        incr k
      end
    done);
  if !k = n then t else { data = t.data; sel = Some (Array.sub sel 0 !k) }

let drop t pos =
  let n = length t in
  if pos <= 0 then t
  else if pos >= n then empty
  else
    match t.sel with
    | Some s -> { data = t.data; sel = Some (Array.sub s pos (n - pos)) }
    | None -> { data = t.data; sel = Some (Array.init (n - pos) (fun i -> pos + i)) }

module Fifo = struct
  (* Full batches, oldest first, and the batch being filled: a full
     batch is handed out whole, with no copy. *)
  type t = {
    size : int;
    full : Env.t array Queue.t;
    mutable filling : Env.t array;
    mutable filled : int;
  }

  let create size = { size = max 1 size; full = Queue.create (); filling = [||]; filled = 0 }

  let clear q =
    Queue.clear q.full;
    q.filling <- [||];
    q.filled <- 0

  let push q env =
    if q.filled = 0 then q.filling <- Array.make q.size env else q.filling.(q.filled) <- env;
    q.filled <- q.filled + 1;
    if q.filled = q.size then begin
      Queue.push q.filling q.full;
      q.filling <- [||];
      q.filled <- 0
    end

  let pop_full q = if Queue.is_empty q.full then None else Some (of_array (Queue.pop q.full))

  let pop q =
    match pop_full q with
    | Some _ as b -> b
    | None when q.filled = 0 -> None
    | None ->
      let b = of_array (Array.sub q.filling 0 q.filled) in
      q.filling <- [||];
      q.filled <- 0;
      Some b
end
