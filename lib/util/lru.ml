(* Hash table + intrusive doubly-linked list, head = most recent. *)

module type S = sig
  type key
  type 'v t

  val create : capacity:int -> 'v t
  val find : 'v t -> key -> 'v option
  val add : 'v t -> key -> 'v -> (key * 'v) option
  val remove : 'v t -> key -> unit
  val fold : (key -> 'v -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc
end

module Make (H : Hashtbl.HashedType) = struct
  module Tbl = Hashtbl.Make (H)

  type key = H.t

  type 'v node = {
    key : key;
    mutable value : 'v;
    mutable prev : 'v node option;
    mutable next : 'v node option;
  }

  type 'v t = {
    capacity : int;
    table : 'v node Tbl.t;
    mutable head : 'v node option;
    mutable tail : 'v node option;
  }

  let create ~capacity =
    assert (capacity >= 0);
    { capacity; table = Tbl.create (min capacity 4096); head = None; tail = None }

  let unlink t node =
    (match node.prev with
    | Some p -> p.next <- node.next
    | None -> t.head <- node.next);
    (match node.next with
    | Some n -> n.prev <- node.prev
    | None -> t.tail <- node.prev);
    node.prev <- None;
    node.next <- None

  let push_front t node =
    node.next <- t.head;
    node.prev <- None;
    (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
    t.head <- Some node

  let find t k =
    match Tbl.find_opt t.table k with
    | None -> None
    | Some node ->
      unlink t node;
      push_front t node;
      Some node.value

  let remove t k =
    match Tbl.find_opt t.table k with
    | None -> ()
    | Some node ->
      unlink t node;
      Tbl.remove t.table k

  let add t k v =
    match Tbl.find_opt t.table k with
    | Some node ->
      node.value <- v;
      unlink t node;
      push_front t node;
      None
    | None when t.capacity = 0 -> Some (k, v)
    | None -> (
      let node = { key = k; value = v; prev = None; next = None } in
      Tbl.replace t.table k node;
      push_front t node;
      match t.tail with
      | Some lru when Tbl.length t.table > t.capacity ->
        remove t lru.key;
        Some (lru.key, lru.value)
      | _ -> None)

  let fold f t init =
    let rec go acc = function
      | None -> acc
      | Some node -> go (f node.key node.value acc) node.next
    in
    go init t.head
end

include Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

module Ipair = Make (struct
  type t = int * int

  let equal ((a1, b1) : t) (a2, b2) = a1 = a2 && b1 = b2

  let hash (a, b) =
    let h = (a * 0x9E3779B97F4A7C1) + b in
    h lxor (h lsr 17)
end)
