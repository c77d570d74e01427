(* Doubly-linked LRU list threaded through a hashtable of nodes. *)

type node = {
  key : int;
  mutable dirty : bool;
  mutable prev : node option;  (* toward LRU end *)
  mutable next : node option;  (* toward MRU end *)
}

type t = {
  cap : int;
  table : (int, node) Hashtbl.t;
  mutable lru : node option;
  mutable mru : node option;
}

type eviction = { key : int; dirty : bool }

let create ~capacity =
  if capacity <= 0 then invalid_arg "Cache.create: capacity must be positive";
  { cap = capacity; table = Hashtbl.create (2 * capacity); lru = None; mru = None }

let capacity c = c.cap
let size c = Hashtbl.length c.table
let mem c k = Hashtbl.mem c.table k

let unlink c node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> c.lru <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> c.mru <- node.prev);
  node.prev <- None;
  node.next <- None

let push_mru c node =
  node.prev <- c.mru;
  node.next <- None;
  (match c.mru with Some m -> m.next <- Some node | None -> c.lru <- Some node);
  c.mru <- Some node

let touch c k =
  match Hashtbl.find_opt c.table k with
  | None -> false
  | Some node ->
      unlink c node;
      push_mru c node;
      true

let evict_lru c =
  match c.lru with
  | None -> None
  | Some node ->
      unlink c node;
      Hashtbl.remove c.table node.key;
      Some { key = node.key; dirty = node.dirty }

let insert c ?(dirty = false) k =
  match Hashtbl.find_opt c.table k with
  | Some node ->
      node.dirty <- node.dirty || dirty;
      unlink c node;
      push_mru c node;
      None
  | None ->
      let victim = if size c >= c.cap then evict_lru c else None in
      let node = { key = k; dirty; prev = None; next = None } in
      Hashtbl.replace c.table k node;
      push_mru c node;
      victim

let remove c k =
  match Hashtbl.find_opt c.table k with
  | None -> None
  | Some node ->
      unlink c node;
      Hashtbl.remove c.table k;
      Some { key = node.key; dirty = node.dirty }

let iter f c =
  let rec go = function
    | None -> ()
    | Some (node : node) ->
        f node.key ~dirty:node.dirty;
        go node.next
  in
  go c.lru
