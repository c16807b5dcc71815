type event = { time : float; seq : int; action : unit -> unit }

type t = {
  queue : event Purity_util.Heap.t;
  mutable now : float;
  mutable next_seq : int;
}

let cmp_event a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let create () =
  { queue = Purity_util.Heap.create ~cmp:cmp_event; now = 0.0; next_seq = 0 }

let now t = t.now

let schedule_at t ~at action =
  let time = Float.max at t.now in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Purity_util.Heap.push t.queue { time; seq; action }

let schedule t ~delay action = schedule_at t ~at:(t.now +. Float.max delay 0.0) action

let step t =
  match Purity_util.Heap.pop t.queue with
  | None -> false
  | Some ev ->
    t.now <- Float.max t.now ev.time;
    ev.action ();
    true

let run t = while step t do () done

let await t f =
  let r = ref None in
  f (fun x -> r := Some x);
  run t;
  !r

let run_until t stop =
  let continue = ref true in
  while !continue do
    match Purity_util.Heap.peek t.queue with
    | Some ev when ev.time <= stop -> ignore (step t)
    | _ -> continue := false
  done;
  t.now <- Float.max t.now stop

let pending t = Purity_util.Heap.length t.queue

let advance t d = if d > 0.0 then t.now <- t.now +. d
