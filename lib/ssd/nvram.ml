module Clock = Purity_sim.Clock

type record = { seq : int64; payload : string }

type t = {
  clock : Clock.t;
  latency_us : float;
  mb_s : float;
  cap : int;
  log : record Queue.t;
  mutable used : int;
  mutable free_at : float;
  mutable losses : int;
}

let create ?(latency_us = 15.0) ?(mb_s = 700.0) ?(capacity = 16 * 1024 * 1024) ~clock () =
  {
    clock;
    latency_us;
    mb_s;
    cap = capacity;
    log = Queue.create ();
    used = 0;
    free_at = 0.0;
    losses = 0;
  }

let record_overhead = 16
let record_size r = String.length r.payload + record_overhead

(* Admission is decided on the declared length alone, so a refused
   commit never pays for building its payload. *)
let commit t ~seq ~len build k =
  let size = len + record_overhead in
  if t.used + size > t.cap then Clock.schedule t.clock ~delay:1.0 (fun () -> k (Error `Full))
  else begin
    let payload = build () in
    if String.length payload <> len then invalid_arg "Nvram.commit: payload length mismatch";
    Queue.add { seq; payload } t.log;
    t.used <- t.used + size;
    let transfer = float_of_int size /. (t.mb_s *. 1024.0 *. 1024.0 /. 1e6) in
    let start = Float.max (Clock.now t.clock) t.free_at in
    let finish = start +. t.latency_us +. transfer in
    t.free_at <- finish;
    Clock.schedule_at t.clock ~at:finish (fun () -> k (Ok ()))
  end

let admits t lens =
  List.fold_left (fun used len -> used + len + record_overhead) t.used lens <= t.cap

let trim_upto t seq =
  let continue = ref true in
  while !continue do
    match Queue.peek_opt t.log with
    | Some r when Int64.compare r.seq seq <= 0 ->
      ignore (Queue.pop t.log);
      t.used <- t.used - record_size r
    | _ -> continue := false
  done

(* Fault injection: the device loses its contents (a dead SLC part).
   The part itself keeps working — later commits land normally — so the
   exposure window is exactly the records that were pending at the loss. *)
let lose t =
  Queue.clear t.log;
  t.used <- 0;
  t.losses <- t.losses + 1

let losses t = t.losses
let records t = List.of_seq (Queue.to_seq t.log)
let used_bytes t = t.used
let capacity t = t.cap
