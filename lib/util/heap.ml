type t = {
  mutable prio : int array;
  mutable value : int array;
  mutable len : int;
}

let create ?(initial_capacity = 16) () =
  let cap = max 1 initial_capacity in
  { prio = Array.make cap 0; value = Array.make cap 0; len = 0 }

let length h = h.len
let is_empty h = h.len = 0

let swap h i j =
  let pi = h.prio.(i) and vi = h.value.(i) in
  h.prio.(i) <- h.prio.(j);
  h.value.(i) <- h.value.(j);
  h.prio.(j) <- pi;
  h.value.(j) <- vi

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.prio.(i) < h.prio.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.len && h.prio.(l) < h.prio.(!smallest) then smallest := l;
  if r < h.len && h.prio.(r) < h.prio.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let grow h =
  let cap = Array.length h.prio in
  let prio = Array.make (2 * cap) 0 and value = Array.make (2 * cap) 0 in
  Array.blit h.prio 0 prio 0 h.len;
  Array.blit h.value 0 value 0 h.len;
  h.prio <- prio;
  h.value <- value

let push h ~prio ~value =
  if h.len = Array.length h.prio then grow h;
  h.prio.(h.len) <- prio;
  h.value.(h.len) <- value;
  h.len <- h.len + 1;
  sift_up h (h.len - 1)

let pop_min h =
  if h.len = 0 then None
  else begin
    let p = h.prio.(0) and v = h.value.(0) in
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.prio.(0) <- h.prio.(h.len);
      h.value.(0) <- h.value.(h.len);
      sift_down h 0
    end;
    Some (p, v)
  end

let clear h = h.len <- 0
