module Cdag = Dmc_cdag.Cdag

type summary = {
  length : int;
  loads : int;
  stores : int;
  computes : int;
  deletes : int;
  io : int;
  distinct_loaded : int;
  reloads : int;
}

let summarize moves =
  let loads = ref 0 and stores = ref 0 and computes = ref 0 and deletes = ref 0 in
  let loaded = Hashtbl.create 64 in
  let reloads = ref 0 in
  List.iter
    (fun (m : Rbw_game.move) ->
      match m with
      | Rb_game.Load v ->
          incr loads;
          if Hashtbl.mem loaded v then incr reloads else Hashtbl.replace loaded v ()
      | Rb_game.Store _ -> incr stores
      | Rb_game.Compute _ -> incr computes
      | Rb_game.Delete _ -> incr deletes)
    moves;
  {
    length = List.length moves;
    loads = !loads;
    stores = !stores;
    computes = !computes;
    deletes = !deletes;
    io = !loads + !stores;
    distinct_loaded = Hashtbl.length loaded;
    reloads = !reloads;
  }

let io_timeline moves =
  let out = Array.make (List.length moves) 0 in
  let acc = ref 0 in
  List.iteri
    (fun i (m : Rbw_game.move) ->
      (match m with
      | Rb_game.Load _ | Rb_game.Store _ -> incr acc
      | Rb_game.Compute _ | Rb_game.Delete _ -> ());
      out.(i) <- !acc)
    moves;
  out

let live_timeline moves =
  let out = Array.make (List.length moves) 0 in
  let red = Hashtbl.create 64 in
  List.iteri
    (fun i (m : Rbw_game.move) ->
      (match m with
      | Rb_game.Load v | Rb_game.Compute v -> Hashtbl.replace red v ()
      | Rb_game.Store _ -> ()
      | Rb_game.Delete v -> Hashtbl.remove red v);
      out.(i) <- Hashtbl.length red)
    moves;
  out

let to_string ?limit moves =
  let buf = Buffer.create 256 in
  let n = List.length moves in
  let cutoff = match limit with Some l -> l | None -> n in
  List.iteri
    (fun i m ->
      if i < cutoff then
        Buffer.add_string buf (Format.asprintf "%a@." Rb_game.pp_move m)
      else if i = cutoff then
        Buffer.add_string buf (Printf.sprintf "... (%d more moves)\n" (n - cutoff)))
    moves;
  Buffer.contents buf

let pp_summary ppf s =
  Format.fprintf ppf
    "%d moves: io=%d (loads=%d of which %d reloads, stores=%d), computes=%d, deletes=%d"
    s.length s.io s.loads s.reloads s.stores s.computes s.deletes

let phase_io ~s moves =
  if s <= 0 then invalid_arg "Trace.phase_io";
  let phases = ref [] and current = ref 0 in
  List.iter
    (fun (m : Rbw_game.move) ->
      match m with
      | Rb_game.Load _ | Rb_game.Store _ ->
          if !current = s then begin
            phases := !current :: !phases;
            current := 0
          end;
          incr current
      | Rb_game.Compute _ | Rb_game.Delete _ -> ())
    moves;
  if !current > 0 then phases := !current :: !phases;
  List.rev !phases

let parse text =
  let exception Bad of string in
  try
    let moves = ref [] in
    List.iteri
      (fun lineno0 line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then ()
        else begin
          let fail msg =
            raise (Bad (Printf.sprintf "line %d: %s" (lineno0 + 1) msg))
          in
          match String.split_on_char ' ' line |> List.filter (( <> ) "") with
          | [ op; v ] -> (
              match int_of_string_opt v with
              | None -> fail ("not a vertex: " ^ v)
              | Some v -> (
                  match op with
                  | "load" -> moves := Rb_game.Load v :: !moves
                  | "store" -> moves := Rb_game.Store v :: !moves
                  | "compute" -> moves := Rb_game.Compute v :: !moves
                  | "delete" -> moves := Rb_game.Delete v :: !moves
                  | _ -> fail ("unknown move: " ^ op)))
          | _ -> fail ("malformed move: " ^ line)
        end)
      (String.split_on_char '\n' text);
    Ok (List.rev !moves)
  with Bad msg -> Error msg

let render_timeline ?(width = 64) moves =
  let io = io_timeline moves and live = live_timeline moves in
  let n = Array.length io in
  if n = 0 then "(empty game)\n"
  else begin
    let width = min width n in
    let glyphs = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#' |] in
    let sample (a : int array) col =
      a.(min (n - 1) (col * n / width))
    in
    let spark a =
      let peak = Array.fold_left max 1 a in
      String.init width (fun col ->
          let v = sample a col in
          glyphs.(min 7 (v * 8 / (peak + 1))))
    in
    Printf.sprintf "io   |%s| %d\nlive |%s| peak %d\n" (spark io)
      io.(n - 1) (spark live)
      (Array.fold_left max 0 live)
  end
