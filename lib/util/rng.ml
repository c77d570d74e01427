(* SplitMix64, truncated to OCaml's 63-bit native ints.  The constants
   are the reference ones from Steele, Lea & Flood (OOPSLA'14). *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_i64 g =
  g.state <- Int64.add g.state golden;
  mix g.state

let split g =
  let child_seed = next_i64 g in
  { state = child_seed }

let next g = Int64.to_int (Int64.shift_right_logical (next_i64 g) 2)

let int g n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  next g mod n

let float g x = Int64.to_float (Int64.shift_right_logical (next_i64 g) 11)
                /. 9007199254740992.0 *. x

let bool g = Int64.logand (next_i64 g) 1L = 1L

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick g a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int g (Array.length a))
