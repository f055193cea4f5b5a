module Config = Oodb_cost.Config

type t = {
  open_ : unit -> unit;
  next_batch : unit -> Batch.t option;
  close : unit -> unit;
  (* Cursor backing the tuple-at-a-time compatibility shim. *)
  mutable cur : Batch.t;
  mutable pos : int;
}

let make_batched ~open_ ~next_batch ~close =
  { open_; next_batch; close; cur = Batch.empty; pos = 0 }

let open_ t =
  t.cur <- Batch.empty;
  t.pos <- 0;
  t.open_ ()

let close t = t.close ()

let next_batch t =
  if t.pos < Batch.length t.cur then begin
    (* hand the unconsumed remainder of the shim cursor back first *)
    let rest = Batch.drop t.cur t.pos in
    t.cur <- Batch.empty;
    t.pos <- 0;
    Some rest
  end
  else
    let rec pull () =
      match t.next_batch () with
      | Some b when Batch.is_empty b -> pull ()
      | r -> r
    in
    pull ()

let next t =
  let rec go () =
    if t.pos < Batch.length t.cur then begin
      let env = Batch.get t.cur t.pos in
      t.pos <- t.pos + 1;
      Some env
    end
    else
      match t.next_batch () with
      | None -> None
      | Some b ->
        t.cur <- b;
        t.pos <- 0;
        go ()
  in
  go ()

let of_batch_gen factory =
  let gen = ref (fun () -> None) in
  make_batched
    ~open_:(fun () -> gen := factory ())
    ~next_batch:(fun () -> !gen ())
    ~close:(fun () -> gen := fun () -> None)

let of_list_thunk ?(batch_size = Config.default_batch_size) thunk =
  let batch_size = max 1 batch_size in
  of_batch_gen (fun () ->
      let remaining = ref (thunk ()) in
      fun () ->
        match !remaining with
        | [] -> None
        | l ->
          let rec take n acc l =
            if n = 0 then (List.rev acc, l)
            else match l with [] -> (List.rev acc, []) | x :: rest -> take (n - 1) (x :: acc) rest
          in
          let chunk, rest = take batch_size [] l in
          remaining := rest;
          Some (Batch.of_list chunk))

(* Drains close the iterator on the way out even when the tree raises
   mid-stream, so a failing operator cannot leak its children's open
   resources. The original exception wins over any secondary failure
   raised by [close] itself. *)
let iter_batches t f =
  open_ t;
  let rec drain () =
    match next_batch t with
    | Some b ->
      f b;
      drain ()
    | None -> ()
  in
  match drain () with
  | () -> close t
  | exception e ->
    (try close t with _ -> ());
    raise e

let to_list t =
  let batches = ref [] in
  iter_batches t (fun b -> batches := b :: !batches);
  (* the last batch first, each from its last tuple: one cons per tuple *)
  List.fold_left (fun acc b -> Batch.fold_right List.cons b acc) [] !batches
