(* A closed-loop client for one [dmc serve] daemon, speaking the wire
   protocol directly: a [dmc query] process per request would add a
   process spawn to every latency. *)

module P = Dmc_serve.Protocol

let reply_timeout = 60.

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      Error ("connect: " ^ Unix.error_message e)

let send fd req =
  match Dmc_util.Ipc.write_frame fd (P.request_to_json req) with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) -> Error ("send: " ^ Unix.error_message e)

let receive fd =
  let deadline = Unix.gettimeofday () +. reply_timeout in
  match Dmc_util.Ipc.read_frame ~deadline fd with
  | Error e -> Error ("reply: " ^ Dmc_util.Ipc.read_error_to_string e)
  | Ok j -> P.reply_of_json j

(* One request on its own connection. *)
let request socket req =
  match connect socket with
  | Error _ as e -> e
  | Ok fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> Result.bind (send fd req) (fun () -> receive fd))

(* Ping until the daemon answers; the time of the first Pong. *)
let await_ready ~deadline socket =
  let rec go () =
    match request socket P.Ping with
    | Ok P.Pong -> Ok (Proc.now ())
    | _ when Proc.now () > deadline -> Error "daemon never answered Ping"
    | _ ->
        Unix.sleepf 0.0005;
        go ()
  in
  go ()

type answer = { latency : float; reply : (P.reply, string) result }

(* What a lane sends next: [Later] means not yet, ask again soon. *)
type 'a step = Send of 'a * P.request | Later | Done

(* Lanes over one daemon: each lane keeps at most one request
   outstanding.  [next lane] is asked whenever a lane is idle — after
   every reply, and every [poll] seconds while some lane said [Later];
   [on_answer lane item answer] sees every reply.  Returns when every
   lane is [Done] and idle. *)
let poll = 0.0002

let lanes ~socket ~count ~next ~on_answer =
  let live = Hashtbl.create count in
  let busy = Array.make count false in
  let waiting = ref false in
  let fill () =
    waiting := false;
    for lane = 0 to count - 1 do
      if not busy.(lane) then
        match next lane with
        | Done -> ()
        | Later -> waiting := true
        | Send (item, req) -> (
            let t0 = Proc.now () in
            let fail m = on_answer lane item { latency = Proc.now () -. t0; reply = Error m } in
            match connect socket with
            | Error m -> fail m
            | Ok fd -> (
                match send fd req with
                | Ok () ->
                    busy.(lane) <- true;
                    Hashtbl.replace live fd (lane, item, t0)
                | Error m ->
                    Unix.close fd;
                    fail m))
    done
  in
  let finish fd reply =
    let lane, item, t0 = Hashtbl.find live fd in
    Hashtbl.remove live fd;
    Unix.close fd;
    busy.(lane) <- false;
    on_answer lane item { latency = Proc.now () -. t0; reply }
  in
  fill ();
  while Hashtbl.length live > 0 || !waiting do
    let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) live [] in
    (match Unix.select fds [] [] (if !waiting then poll else reply_timeout) with
    | [], _, _ ->
        let now = Proc.now () in
        List.iter
          (fun fd ->
            let _, _, t0 = Hashtbl.find live fd in
            if now -. t0 > reply_timeout then finish fd (Error "no reply"))
          fds
    | ready, _, _ -> List.iter (fun fd -> finish fd (receive fd)) ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    fill ()
  done
