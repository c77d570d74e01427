module Bitset = Dmc_util.Bitset
module Budget = Dmc_util.Budget
module Intvec = Dmc_util.Intvec

let tick = function None -> () | Some b -> Budget.tick b
let c_bfs = Dmc_obs.Counter.make "dinic.bfs_rounds"
let c_aug = Dmc_obs.Counter.make "dinic.augmenting_paths"
let h_path_len = Dmc_obs.Histogram.make "dinic.path_len"

(* Edges are stored in pairs: edge [2k] and its residual twin [2k+1].
   [cap] holds the residual capacity, so flow on edge e equals the
   residual capacity of its twin. *)
type t = {
  n : int;
  head : Intvec.t;      (* per edge: destination node *)
  cap : Intvec.t;       (* per edge: residual capacity *)
  next : Intvec.t;      (* per edge: next edge id out of the same node *)
  first : int array;    (* per node: first edge id, -1 when none *)
  mutable level : int array;
  mutable cursor : int array;
}

let infinite = max_int / 4

let create n =
  {
    n;
    head = Intvec.create ();
    cap = Intvec.create ();
    next = Intvec.create ();
    first = Array.make (max n 1) (-1);
    level = [||];
    cursor = [||];
  }

let push_edge net ~src ~dst ~cap =
  let id = Intvec.length net.head in
  Intvec.push net.head dst;
  Intvec.push net.cap cap;
  Intvec.push net.next net.first.(src);
  net.first.(src) <- id;
  id

let add_edge net ~src ~dst ~cap =
  if src < 0 || src >= net.n || dst < 0 || dst >= net.n then
    invalid_arg "Maxflow.add_edge: node out of range";
  if cap < 0 then invalid_arg "Maxflow.add_edge: negative capacity";
  let id = push_edge net ~src ~dst ~cap in
  ignore (push_edge net ~src:dst ~dst:src ~cap:0);
  id

let bfs ?budget net ~src ~dst =
  let level = Array.make net.n (-1) in
  level.(src) <- 0;
  let queue = Queue.create () in
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    tick budget;
    let e = ref net.first.(u) in
    while !e >= 0 do
      let v = Intvec.get net.head !e in
      if Intvec.get net.cap !e > 0 && level.(v) < 0 then begin
        level.(v) <- level.(u) + 1;
        Queue.add v queue
      end;
      e := Intvec.get net.next !e
    done
  done;
  net.level <- level;
  level.(dst) >= 0

let rec dfs ?budget net ~dst u pushed =
  if u = dst then pushed
  else begin
    let result = ref 0 in
    while !result = 0 && net.cursor.(u) >= 0 do
      tick budget;
      let e = net.cursor.(u) in
      let v = Intvec.get net.head e in
      let residual = Intvec.get net.cap e in
      if residual > 0 && net.level.(v) = net.level.(u) + 1 then begin
        let sent = dfs ?budget net ~dst v (min pushed residual) in
        if sent > 0 then begin
          Intvec.set net.cap e (residual - sent);
          Intvec.set net.cap (e lxor 1) (Intvec.get net.cap (e lxor 1) + sent);
          result := sent
        end
        else net.cursor.(u) <- Intvec.get net.next e
      end
      else net.cursor.(u) <- Intvec.get net.next e
    done;
    !result
  end

let max_flow ?budget net ~src ~dst =
  if src = dst then invalid_arg "Maxflow.max_flow: src = dst";
  let total = ref 0 in
  while bfs ?budget net ~src ~dst do
    Dmc_obs.Counter.incr c_bfs;
    net.cursor <- Array.copy net.first;
    let rec pump () =
      let sent = dfs ?budget net ~dst src infinite in
      if sent > 0 then begin
        Dmc_obs.Counter.incr c_aug;
        (* level.(dst) is the length of every augmenting path in this
           phase — Dinic only sends flow along level-respecting paths *)
        Dmc_obs.Histogram.observe h_path_len net.level.(dst);
        total := !total + sent;
        pump ()
      end
    in
    pump ()
  done;
  !total

let flow_on net id = Intvec.get net.cap (id lxor 1)

let iter_out net ~node f =
  let e = ref net.first.(node) in
  while !e >= 0 do
    if !e land 1 = 0 then f ~id:!e ~dst:(Intvec.get net.head !e);
    e := Intvec.get net.next !e
  done

let min_cut_source_side net ~src =
  let side = Bitset.create net.n in
  Bitset.add side src;
  let stack = Stack.create () in
  Stack.push src stack;
  while not (Stack.is_empty stack) do
    let u = Stack.pop stack in
    let e = ref net.first.(u) in
    while !e >= 0 do
      let v = Intvec.get net.head !e in
      if Intvec.get net.cap !e > 0 && not (Bitset.mem side v) then begin
        Bitset.add side v;
        Stack.push v stack
      end;
      e := Intvec.get net.next !e
    done
  done;
  side
