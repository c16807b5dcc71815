(* A slab of [capacity] slots in parallel arrays. A slot is linked twice
   by int indices (-1 ends a list): into the recency list (head = most
   recent) and into its hash bucket's chain; free slots chain through
   [next]. Lookups and promotions only rewrite ints, and a slot keeps its
   value as the option [find] hands back, so a hit allocates nothing. *)

type 'v t = {
  capacity : int;
  keys : int array;
  values : 'v option array; (* [None] in a free slot *)
  prev : int array;
  next : int array;
  chain : int array; (* the next slot in the same bucket *)
  buckets : int array; (* the first slot of each bucket; a power of two *)
  mutable head : int;
  mutable tail : int;
  mutable free : int;
  mutable size : int;
}

let create ~capacity =
  assert (capacity >= 0);
  let nbuckets = ref 1 in
  while !nbuckets < capacity do
    nbuckets := 2 * !nbuckets
  done;
  {
    capacity;
    keys = Array.make capacity 0;
    values = Array.make capacity None;
    prev = Array.make capacity (-1);
    next = Array.init capacity (fun i -> if i + 1 < capacity then i + 1 else -1);
    chain = Array.make capacity (-1);
    buckets = Array.make !nbuckets (-1);
    head = -1;
    tail = -1;
    free = (if capacity > 0 then 0 else -1);
    size = 0;
  }

let bucket t k =
  let h = k * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land (Array.length t.buckets - 1)

(* The slot holding [k] in the chain from [s], or -1. *)
let rec probe t k s = if s < 0 || t.keys.(s) = k then s else probe t k t.chain.(s)

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p >= 0 then t.next.(p) <- n else t.head <- n;
  if n >= 0 then t.prev.(n) <- p else t.tail <- p

let push_front t s =
  t.prev.(s) <- -1;
  t.next.(s) <- t.head;
  if t.head >= 0 then t.prev.(t.head) <- s else t.tail <- s;
  t.head <- s

let[@purity.lint.hotpath] find t k =
  if t.capacity = 0 then None
  else
    let s = probe t k t.buckets.(bucket t k) in
    if s < 0 then None
    else begin
      if s <> t.head then begin
        unlink t s;
        push_front t s
      end;
      t.values.(s)
    end

(* Take slot [s] out of its bucket's chain. *)
let unchain t b s =
  let first = t.buckets.(b) in
  if first = s then t.buckets.(b) <- t.chain.(s)
  else begin
    let p = ref first in
    while t.chain.(!p) <> s do
      p := t.chain.(!p)
    done;
    t.chain.(!p) <- t.chain.(s)
  end

(* Free slot [s], which holds [k]. *)
let release t k s =
  unchain t (bucket t k) s;
  unlink t s;
  t.values.(s) <- None;
  t.next.(s) <- t.free;
  t.free <- s;
  t.size <- t.size - 1

let remove t k =
  if t.capacity > 0 then begin
    let s = probe t k t.buckets.(bucket t k) in
    if s >= 0 then release t k s
  end

let add t k v =
  if t.capacity = 0 then Some (k, v)
  else begin
    let b = bucket t k in
    let s = probe t k t.buckets.(b) in
    if s >= 0 then begin
      t.values.(s) <- Some v;
      if s <> t.head then begin
        unlink t s;
        push_front t s
      end;
      None
    end
    else begin
      (* a full cache first frees its least-recently-used slot *)
      let evicted =
        if t.size < t.capacity then None
        else begin
          let lru = t.tail in
          let key = t.keys.(lru) in
          let old = t.values.(lru) in
          release t key lru;
          match old with Some old -> Some (key, old) | None -> None
        end
      in
      let s = t.free in
      t.free <- t.next.(s);
      t.keys.(s) <- k;
      t.values.(s) <- Some v;
      t.chain.(s) <- t.buckets.(b);
      t.buckets.(b) <- s;
      push_front t s;
      t.size <- t.size + 1;
      evicted
    end
  end

let fold f t init =
  let rec go acc s =
    if s < 0 then acc
    else
      match t.values.(s) with
      | Some v -> go (f t.keys.(s) v acc) t.next.(s)
      | None -> acc
  in
  go init t.head
