type t = { mutable data : int array; mutable len : int }

let create ?(initial_capacity = 8) () =
  let cap = max 1 initial_capacity in
  { data = Array.make cap 0; len = 0 }

let length v = v.len

let check v i =
  if i < 0 || i >= v.len then invalid_arg "Intvec: index out of bounds"

let get v i = check v i; Array.unsafe_get v.data i
let set v i x = check v i; Array.unsafe_set v.data i x

let grow v =
  let cap = Array.length v.data in
  let data = Array.make (2 * cap) 0 in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let push v x =
  if v.len = Array.length v.data then grow v;
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Intvec.pop: empty";
  v.len <- v.len - 1;
  Array.unsafe_get v.data v.len

let clear v = v.len <- 0

let to_array v = Array.sub v.data 0 v.len

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let fold f init v =
  let acc = ref init in
  iter (fun x -> acc := f !acc x) v;
  !acc

let sort v =
  let a = to_array v in
  Array.sort compare a;
  Array.blit a 0 v.data 0 v.len
