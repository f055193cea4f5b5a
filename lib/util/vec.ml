type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  mutable cap_hint : int;
}

let create ?(capacity = 16) () = { data = [||]; len = 0; cap_hint = max capacity 1 }

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  Array.unsafe_get t.data i

let set t i v =
  if i < 0 || i >= t.len then invalid_arg "Vec.set: index out of bounds";
  Array.unsafe_set t.data i v

let push t v =
  if t.len = Array.length t.data then begin
    (* grow with [v] as the filler: no dummy element needed, and the
       unused tail holds a value of the right type *)
    let data = Array.make (if t.len = 0 then t.cap_hint else 2 * t.len) v in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  Array.unsafe_set t.data t.len v;
  t.len <- t.len + 1;
  t.len - 1

let sub t pos n =
  if pos < 0 || n < 0 || pos + n > t.len then invalid_arg "Vec.sub: range out of bounds";
  Array.sub t.data pos n

let iteri f t =
  for i = 0 to t.len - 1 do
    f i (Array.unsafe_get t.data i)
  done

let iter f t = iteri (fun _ v -> f v) t

let fold_left f acc t =
  let acc = ref acc in
  iter (fun v -> acc := f !acc v) t;
  !acc

let to_list t = List.init t.len (fun i -> Array.unsafe_get t.data i)
