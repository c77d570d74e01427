module J = Dmc_util.Json
module Balance = Dmc_machine.Balance

type part = { part : string; run : unit -> J.t }

type t = {
  name : string;
  parts : part list;
  doc_of_parts : J.t list -> Doc.t;
}

let doc t = t.doc_of_parts (List.map (fun p -> p.run ()) t.parts)

let find_part t name = List.find_opt (fun p -> p.part = name) t.parts

(* ------------------------------------------------------------------ *)
(* Payload accessors.  Payloads are produced and consumed by this
   library; a shape mismatch means a version bug (or a checkpoint from
   another version, which the driver rejects before we get here), so
   these raise with the offending field instead of threading options. *)

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

module P = struct
  let field obj k =
    match J.mem obj k with
    | Some v -> v
    | None -> malformed "experiment payload: missing field %S" k

  let int obj k =
    match J.as_int (field obj k) with
    | Some v -> v
    | None -> malformed "experiment payload: field %S is not an int" k

  let float obj k =
    match J.as_float (field obj k) with
    | Some v -> v
    | None -> malformed "experiment payload: field %S is not a number" k

  let str obj k =
    match J.as_string (field obj k) with
    | Some v -> v
    | None -> malformed "experiment payload: field %S is not a string" k

  let bool obj k =
    match J.as_bool (field obj k) with
    | Some v -> v
    | None -> malformed "experiment payload: field %S is not a bool" k

  let list obj k =
    match J.as_list (field obj k) with
    | Some v -> v
    | None -> malformed "experiment payload: field %S is not a list" k

  let objs obj k = list obj k

  let int_opt obj k =
    match field obj k with
    | J.Null -> None
    | v -> (
        match J.as_int v with
        | Some v -> Some v
        | None -> malformed "experiment payload: field %S is not int?" k)

  let of_int_opt = function None -> J.Null | Some v -> J.Int v

  let strings obj k =
    List.map
      (fun v ->
        match J.as_string v with
        | Some s -> s
        | None -> malformed "experiment payload: field %S holds a non-string" k)
      (list obj k)

  let of_strings l = J.List (List.map (fun s -> J.String s) l)
end

(* ------------------------------------------------------------------ *)
(* Shared codecs.                                                     *)

let verdict_to_json v =
  J.String
    (match v with
    | Balance.Bandwidth_bound -> "bandwidth-bound"
    | Balance.Not_bandwidth_bound -> "not-bandwidth-bound"
    | Balance.Indeterminate -> "indeterminate")

let verdict_of_json j =
  match J.as_string j with
  | Some "bandwidth-bound" -> Balance.Bandwidth_bound
  | Some "not-bandwidth-bound" -> Balance.Not_bandwidth_bound
  | Some "indeterminate" -> Balance.Indeterminate
  | _ -> malformed "experiment payload: bad balance verdict"

let blocks_to_json blocks = J.List (List.map Doc.block_to_json blocks)

let blocks_of_json j =
  match J.as_list j with
  | None -> malformed "experiment payload: blocks field is not a list"
  | Some l ->
      List.map
        (fun b ->
          match Doc.block_of_json b with
          | Some b -> b
          | None -> malformed "experiment payload: unparseable block")
        l

let blocks_field obj k = blocks_of_json (P.field obj k)

let block_field obj k =
  match Doc.block_of_json (P.field obj k) with
  | Some b -> b
  | None -> malformed "experiment payload: field %S is not a block" k
