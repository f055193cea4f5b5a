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
  type batch = t

  type t = { mutable buf : Env.t array; mutable head : int; mutable tail : int }

  let create () = { buf = [||]; head = 0; tail = 0 }

  let clear q =
    q.buf <- [||];
    q.head <- 0;
    q.tail <- 0

  let length q = q.tail - q.head

  let push q env =
    if q.tail = Array.length q.buf then begin
      let live = length q in
      (* compact in place when at least half the buffer is consumed,
         otherwise double it *)
      let buf =
        if live > 0 && 2 * live <= Array.length q.buf then q.buf
        else Array.make (max 64 (2 * live)) env
      in
      Array.blit q.buf q.head buf 0 live;
      q.buf <- buf;
      q.head <- 0;
      q.tail <- live
    end;
    q.buf.(q.tail) <- env;
    q.tail <- q.tail + 1

  let pop q n : batch =
    let k = min n (length q) in
    let data = Array.sub q.buf q.head k in
    q.head <- q.head + k;
    if q.head = q.tail then begin
      q.head <- 0;
      q.tail <- 0
    end;
    of_array data
end
