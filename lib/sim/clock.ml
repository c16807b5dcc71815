(* The pending events are a binary min-heap over three parallel arrays,
   ordered by (time, seq): [times] is a flat float array, so scheduling
   and dispatching box no time and build no event record. A new event is
   written into the first free slot and sifted up from there, so no float
   crosses a function boundary inside the queue. *)

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable actions : (unit -> unit) array;
  mutable size : int;
  mutable now : float;
  mutable next_seq : int;
}

(* What every slot at or past [size] holds, so a popped action is never
   retained by its vacated slot. *)
let vacant () = ()

let create () =
  { times = [||]; seqs = [||]; actions = [||]; size = 0; now = 0.0; next_seq = 0 }

let now t = t.now

let[@purity.lint.allow
     "raises: every time the tree schedules is a sum of finite latencies; \
      the guard turns a caller's NaN or infinite time into an error at the \
      call instead of a clock that reads NaN for the rest of the run"] check_finite what x =
  if not (Float.is_finite x) then invalid_arg ("Clock." ^ what ^ ": not a finite time")

(* Double the arrays: once per doubling of the queue's high-water mark. *)
let[@purity.lint.coldpath] grow t =
  let cap = max 16 (2 * Array.length t.times) in
  let times = Array.make cap 0.0 and seqs = Array.make cap 0 in
  let actions = Array.make cap vacant in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.actions 0 actions 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.actions <- actions

(* The event in slot [i] fires before the one in slot [j]. *)
let before t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj || (ti = tj && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let time = t.times.(i) and seq = t.seqs.(i) and action = t.actions.(i) in
  t.times.(i) <- t.times.(j);
  t.seqs.(i) <- t.seqs.(j);
  t.actions.(i) <- t.actions.(j);
  t.times.(j) <- time;
  t.seqs.(j) <- seq;
  t.actions.(j) <- action

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.size then begin
    let r = l + 1 in
    let child = if r < t.size && before t r l then r else l in
    if before t child i then begin
      swap t i child;
      sift_down t child
    end
  end

(* Queue the action whose time the caller has written into slot [size]. *)
let enqueue t action =
  let i = t.size in
  t.seqs.(i) <- t.next_seq;
  t.actions.(i) <- action;
  t.next_seq <- t.next_seq + 1;
  t.size <- i + 1;
  sift_up t i

let[@purity.lint.hotpath] schedule_at t ~at action =
  check_finite "schedule_at" at;
  if t.size = Array.length t.times then grow t;
  t.times.(t.size) <- (if at > t.now then at else t.now);
  enqueue t action

let schedule t ~delay action =
  check_finite "schedule" delay;
  if t.size = Array.length t.times then grow t;
  t.times.(t.size) <- (if delay > 0.0 then t.now +. delay else t.now);
  enqueue t action

(* Remove the root: the last event moves up into it and sifts down, and
   its old slot is cleared. *)
let remove_min t =
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    t.times.(0) <- t.times.(last);
    t.seqs.(0) <- t.seqs.(last);
    t.actions.(0) <- t.actions.(last);
    sift_down t 0
  end;
  t.actions.(last) <- vacant

let[@purity.lint.hotpath] step t =
  if t.size = 0 then false
  else begin
    let time = t.times.(0) and action = t.actions.(0) in
    remove_min t;
    if time > t.now then t.now <- time;
    action ();
    true
  end

let run t = while step t do () done

let await t f =
  let r = ref None in
  f (fun x -> r := Some x);
  run t;
  !r

let run_until t stop =
  check_finite "run_until" stop;
  while t.size > 0 && t.times.(0) <= stop do
    ignore (step t)
  done;
  if stop > t.now then t.now <- stop

let pending t = t.size

let advance t d =
  check_finite "advance" d;
  if d > 0.0 then t.now <- t.now +. d
