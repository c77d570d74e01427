(* Output checks.  Every operation's stdout is compared with the output
   committed for it in expected.json when there is one (all fixed specs,
   and the seeded specs of the default seed), and always with the
   invariants that hold for any input: LB <= optimum <= UB. *)

module J = Dmc_util.Json

let expected_path = "perfbench/expected.json"
let default_seed = 1

let load_expected () =
  match In_channel.with_open_bin expected_path In_channel.input_all with
  | exception Sys_error _ -> Hashtbl.create 0
  | text -> (
      match J.parse text with
      | Ok (J.Obj kvs) ->
          let h = Hashtbl.create 64 in
          List.iter
            (fun (k, v) -> Option.iter (Hashtbl.replace h k) (J.as_string v))
            kvs;
          h
      | _ -> failwith (expected_path ^ ": not a JSON object of strings"))

(* The integer after the first occurrence of [key] in [text]; [None]
   when the key is missing or followed by "-" (not computed). *)
let int_after text key =
  let kl = String.length key and tl = String.length text in
  let rec find i =
    if i + kl > tl then None
    else if String.sub text i kl = key then Some (i + kl)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
      let j = ref i in
      while !j < tl && text.[!j] >= '0' && text.[!j] <= '9' do incr j done;
      if !j = i then None else int_of_string_opt (String.sub text i (!j - i))

let ( let* ) = Result.bind

let need text key =
  match int_after text key with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "no %S in output" key)

let le what a b =
  if a <= b then Ok () else Error (Printf.sprintf "%s: %d > %d" what a b)

(* [dmc bounds] text: best LB <= every schedule's I/O, and a solved
   optimum sits between them.  "optimal: -" is a capped search. *)
let bounds_text ~optimal text =
  let* best = need text "-> best = " in
  let* belady = need text "belady = " in
  let* lru = need text "lru = " in
  let* () = le "best LB vs belady UB" best belady in
  let* () = le "best LB vs lru UB" best lru in
  if not optimal then Ok ()
  else
    match int_after text "optimal: " with
    | None -> Ok ()
    | Some opt ->
        let* () = le "best LB vs optimum" best opt in
        le "optimum vs belady UB" opt belady

(* A governed table reduced to what must not depend on --jobs or on the
   run: engine, kind, value and rung per row, and the best bounds. *)
let governed_table json =
  let field name j = Option.value ~default:J.Null (J.mem j name) in
  let row r =
    J.List (List.map (fun f -> field f r) [ "engine"; "kind"; "value"; "rung" ])
  in
  match J.mem json "rows" |> Fun.flip Option.bind J.as_list with
  | None -> Error "governed output has no rows"
  | Some rows ->
      Ok
        (J.to_string ~indent:false
           (J.Obj
              [
                ("rows", J.List (List.map row rows));
                ("best_lb", field "best_lb" json);
                ("best_ub", field "best_ub" json);
              ]))

let governed_invariants json =
  match (Option.bind (J.mem json "best_lb") J.as_int, Option.bind (J.mem json "best_ub") J.as_int) with
  | Some lb, Some ub -> le "governed best LB vs best UB" lb ub
  | Some _, None -> Ok ()
  | None, _ -> Error "governed output has no best_lb"

(* The normalized text an op's output is compared under. *)
let normalize (op : Cases.op) out =
  match op.mode with
  | Cases.Governed _ -> (
      match J.parse out with
      | Ok j -> governed_table j
      | Error m -> Error ("governed output is not JSON: " ^ m))
  | _ -> Ok out

let invariants (op : Cases.op) out =
  match op.mode with
  | Cases.Analyze { optimal } -> bounds_text ~optimal out
  | Cases.Governed _ -> (
      match J.parse out with
      | Ok j -> governed_invariants j
      | Error m -> Error ("governed output is not JSON: " ^ m))
  | Cases.Symbolic | Cases.Stream | Cases.Experiment _ ->
      if String.trim out = "" then Error "empty output" else Ok ()

(* [reference] supplies the expected normalized output of a seeded op
   that has no committed value. *)
let op_output ~expected ~reference (op : Cases.op) ~code out =
  let* () = if code = 0 then Ok () else Error (Printf.sprintf "exit code %d" code) in
  let* () = invariants op out in
  let* got = normalize op out in
  let want =
    match Hashtbl.find_opt expected (Cases.key op) with
    | Some w -> Some w
    | None -> reference op
  in
  match want with
  | Some w when w <> got ->
      Error (Printf.sprintf "output differs from the expected for %s" (Cases.key op))
  | _ -> Ok ()
