type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
}

let create ~cmp = { cmp; data = [||]; size = 0 }

let length t = t.size

let grow t x =
  let cap = Array.length t.data in
  if t.size >= cap then begin
    let ncap = max 16 (2 * cap) in
    let nd = Array.make ncap x in
    Array.blit t.data 0 nd 0 t.size;
    t.data <- nd
  end

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp t.data.(i) t.data.(parent) < 0 then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && t.cmp t.data.(l) t.data.(!smallest) < 0 then smallest := l;
  if r < t.size && t.cmp t.data.(r) t.data.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t x =
  grow t x;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek t = if t.size = 0 then None else Some t.data.(0)

(* Slots in data[size..cap) must never hold the only reference to a dead
   element: the sim's event queue pops millions of events, and a popped
   closure pinned by its vacated slot lives until that slot happens to be
   overwritten by a later push. Pop therefore overwrites the vacated slot
   with a live element (the root it just moved), shrinks the array at
   quarter occupancy, and drops it entirely when empty — so the heap
   retains at most O(live) elements, never O(high-water mark). *)
let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      t.data.(t.size) <- t.data.(0);
      sift_down t 0;
      let cap = Array.length t.data in
      if cap > 16 && t.size * 4 < cap then
        t.data <- Array.sub t.data 0 (max 16 (2 * t.size))
    end
    else t.data <- [||];
    Some top
  end
