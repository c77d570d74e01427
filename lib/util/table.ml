type align = Left | Right

type line = Row of string list | Rule

type t = {
  headers : string list;
  ncols : int;
  mutable aligns : align array;
  mutable lines : line list; (* reversed *)
}

let create ~headers =
  let ncols = List.length headers in
  { headers; ncols; aligns = Array.make ncols Left; lines = [] }

let set_align t aligns =
  List.iteri (fun i a -> if i < t.ncols then t.aligns.(i) <- a) aligns

let add_row t row =
  if List.length row <> t.ncols then invalid_arg "Table.add_row: width mismatch";
  t.lines <- Row row :: t.lines

let add_rule t = t.lines <- Rule :: t.lines

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render t =
  let lines = List.rev t.lines in
  let widths = Array.make t.ncols 0 in
  let measure row =
    List.iteri (fun i s -> widths.(i) <- max widths.(i) (String.length s)) row
  in
  measure t.headers;
  List.iter (function Row r -> measure r | Rule -> ()) lines;
  let buf = Buffer.create 256 in
  let render_row ?(aligned = true) row =
    Buffer.add_string buf "| ";
    List.iteri
      (fun i s ->
        let a = if aligned then t.aligns.(i) else Left in
        Buffer.add_string buf (pad a widths.(i) s);
        Buffer.add_string buf (if i = t.ncols - 1 then " |" else " | "))
      row;
    Buffer.add_char buf '\n'
  in
  let render_rule () =
    Buffer.add_string buf "|";
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_string buf "|")
      widths;
    Buffer.add_char buf '\n'
  in
  render_row ~aligned:false t.headers;
  render_rule ();
  List.iter (function Row r -> render_row r | Rule -> render_rule ()) lines;
  Buffer.contents buf

let print t = print_string (render t)

let headers t = t.headers

let aligns t = Array.to_list t.aligns

let body t =
  List.rev_map (function Row r -> `Row r | Rule -> `Rule) t.lines

let fmt_float ?(digits = 4) x = Printf.sprintf "%.*f" digits x

let fmt_int n =
  let s = string_of_int (abs n) in
  let len = String.length s in
  let buf = Buffer.create (len + (len / 3)) in
  if n < 0 then Buffer.add_char buf '-';
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf '_';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf
