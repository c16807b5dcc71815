module Clock = Purity_sim.Clock

let check = Alcotest.check
let bool = Alcotest.bool
let flt = Alcotest.float 1e-9

let test_time_starts_at_zero () =
  let c = Clock.create () in
  check flt "t=0" 0.0 (Clock.now c)

let test_events_fire_in_time_order () =
  let c = Clock.create () in
  let order = ref [] in
  Clock.schedule c ~delay:30.0 (fun () -> order := 3 :: !order);
  Clock.schedule c ~delay:10.0 (fun () -> order := 1 :: !order);
  Clock.schedule c ~delay:20.0 (fun () -> order := 2 :: !order);
  Clock.run c;
  check (Alcotest.list Alcotest.int) "order" [ 1; 2; 3 ] (List.rev !order);
  check flt "final time" 30.0 (Clock.now c)

let test_same_time_fifo () =
  let c = Clock.create () in
  let order = ref [] in
  for i = 1 to 5 do
    Clock.schedule c ~delay:7.0 (fun () -> order := i :: !order)
  done;
  Clock.run c;
  check (Alcotest.list Alcotest.int) "insertion order" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_nested_scheduling () =
  let c = Clock.create () in
  let fired_at = ref (-1.0) in
  Clock.schedule c ~delay:5.0 (fun () ->
      Clock.schedule c ~delay:5.0 (fun () -> fired_at := Clock.now c));
  Clock.run c;
  check flt "nested event time" 10.0 !fired_at

let test_run_until () =
  let c = Clock.create () in
  let fired = ref [] in
  Clock.schedule c ~delay:10.0 (fun () -> fired := 10 :: !fired);
  Clock.schedule c ~delay:50.0 (fun () -> fired := 50 :: !fired);
  Clock.run_until c 25.0;
  check (Alcotest.list Alcotest.int) "only first fired" [ 10 ] !fired;
  check flt "time advanced to stop" 25.0 (Clock.now c);
  check Alcotest.int "one pending" 1 (Clock.pending c)

let test_negative_delay_clamps () =
  let c = Clock.create () in
  Clock.advance c 100.0;
  let at = ref 0.0 in
  Clock.schedule c ~delay:(-5.0) (fun () -> at := Clock.now c);
  Clock.run c;
  check flt "clamped to now" 100.0 !at

let test_schedule_at_past_clamps () =
  let c = Clock.create () in
  Clock.advance c 100.0;
  let at = ref 0.0 in
  Clock.schedule_at c ~at:50.0 (fun () -> at := Clock.now c);
  Clock.run c;
  check flt "clamped" 100.0 !at

let test_step () =
  let c = Clock.create () in
  check bool "no events" false (Clock.step c);
  Clock.schedule c ~delay:1.0 ignore;
  check bool "one event" true (Clock.step c);
  check bool "drained" false (Clock.step c)

let test_advance_never_backwards () =
  let c = Clock.create () in
  Clock.advance c 10.0;
  Clock.advance c (-5.0);
  check flt "unchanged" 10.0 (Clock.now c)

let prop_clock_monotone =
  QCheck.Test.make ~name:"observed event times are monotone" ~count:100
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
    (fun delays ->
      let c = Clock.create () in
      let times = ref [] in
      List.iter (fun d -> Clock.schedule c ~delay:(abs_float d) (fun () -> times := Clock.now c :: !times)) delays;
      Clock.run c;
      let ts = List.rev !times in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono ts)


(* A NaN or infinite time is refused at the call: left in, it would sort
   first and leave the clock reading NaN for the rest of the run. *)
let test_non_finite_rejected () =
  let c = Clock.create () in
  Clock.advance c 5.0;
  let rejects label f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" label
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun x ->
      let s = Float.to_string x in
      rejects ("schedule_at " ^ s) (fun () -> Clock.schedule_at c ~at:x ignore);
      rejects ("schedule " ^ s) (fun () -> Clock.schedule c ~delay:x ignore);
      rejects ("advance " ^ s) (fun () -> Clock.advance c x);
      rejects ("run_until " ^ s) (fun () -> Clock.run_until c x))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  check Alcotest.int "nothing queued" 0 (Clock.pending c);
  Clock.schedule c ~delay:1.0 ignore;
  Clock.run c;
  check flt "time still finite" 6.0 (Clock.now c)

(* One operation of the reference check below. Times are small ints, so
   ties are common and the arithmetic is exact. *)
type op =
  | At of int * int option (* schedule_at; the event schedules a child this far on *)
  | Delay of int * int option
  | Step
  | Until of int
  | Advance of int

(* The clock's contract as a sorted list: pending (time, seq, child)
   events, the earliest first. A dispatch logs (seq, time). *)
type model = {
  mutable m_now : float;
  mutable m_seq : int;
  mutable m_pending : (float * int * int option) list;
  mutable m_log : (int * float) list;
}

let model_push m time child =
  let ev = (time, m.m_seq, child) in
  m.m_seq <- m.m_seq + 1;
  m.m_pending <-
    List.sort (fun (t1, s1, _) (t2, s2, _) -> compare (t1, s1) (t2, s2)) (ev :: m.m_pending)

let model_delay m d child = model_push m (m.m_now +. Float.max (float_of_int d) 0.0) child

let model_step m =
  match m.m_pending with
  | [] -> false
  | (time, seq, child) :: rest ->
    m.m_pending <- rest;
    m.m_now <- Float.max m.m_now time;
    m.m_log <- (seq, m.m_now) :: m.m_log;
    Option.iter (fun d -> model_delay m d None) child;
    true

let model_run_until m stop =
  let rec go () =
    match m.m_pending with
    | (time, _, _) :: _ when time <= stop -> if model_step m then go ()
    | _ -> ()
  in
  go ();
  m.m_now <- Float.max m.m_now stop

let op_gen =
  QCheck.Gen.(
    let child = opt ~ratio:0.3 (int_bound 6) in
    frequency
      [
        (4, map2 (fun t c -> At (t, c)) (int_bound 20) child);
        (4, map2 (fun d c -> Delay (d, c)) (int_range (-2) 6) child);
        (3, return Step);
        (1, map (fun t -> Until t) (int_bound 30));
        (1, map (fun d -> Advance d) (int_range (-2) 5));
      ])

let op_print = function
  | At (t, c) -> Printf.sprintf "At %d%s" t (if c = None then "" else "+child")
  | Delay (d, c) -> Printf.sprintf "Delay %d%s" d (if c = None then "" else "+child")
  | Step -> "Step"
  | Until t -> Printf.sprintf "Until %d" t
  | Advance d -> Printf.sprintf "Advance %d" d

(* Every dispatch, with the time it saw, matches the sorted reference
   list: events pop in (time, seq) order across ties, events scheduled by
   running actions, run_until and advance. *)
let prop_reference_order =
  QCheck.Test.make ~name:"events pop in (time, seq) order" ~count:300
    (QCheck.make ~print:QCheck.Print.(list op_print) QCheck.Gen.(list_size (0 -- 80) op_gen))
    (fun ops ->
      let m = { m_now = 0.0; m_seq = 0; m_pending = []; m_log = [] } in
      let c = Clock.create () in
      (* the clock's events are numbered in schedule order, as the
         model's seqs are *)
      let seqs = ref 0 and log = ref [] in
      let rec action seq child () =
        log := (seq, Clock.now c) :: !log;
        Option.iter (fun d -> schedule (fun a -> Clock.schedule c ~delay:(float_of_int d) a) None) child
      and schedule submit child =
        let seq = !seqs in
        incr seqs;
        submit (action seq child)
      in
      List.iter
        (function
          | At (t, child) ->
            schedule (fun a -> Clock.schedule_at c ~at:(float_of_int t) a) child;
            model_push m (Float.max (float_of_int t) m.m_now) child
          | Delay (d, child) ->
            schedule (fun a -> Clock.schedule c ~delay:(float_of_int d) a) child;
            model_delay m d child
          | Step -> if Clock.step c <> model_step m then failwith "step disagrees"
          | Until t ->
            Clock.run_until c (float_of_int t);
            model_run_until m (float_of_int t)
          | Advance d ->
            Clock.advance c (float_of_int d);
            if d > 0 then m.m_now <- m.m_now +. float_of_int d)
        ops;
      Clock.run c;
      while model_step m do () done;
      List.rev !log = List.rev m.m_log && Clock.now c = m.m_now && Clock.pending c = 0)

(* ---------- the event heap ---------- *)

let test_heap_ordering () =
  let c = Clock.create () in
  let order = ref [] in
  List.iter
    (fun t -> Clock.schedule_at c ~at:(float_of_int t) (fun () -> order := t :: !order))
    [ 5; 3; 8; 1; 9; 2; 7 ];
  Clock.run c;
  check (Alcotest.list Alcotest.int) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (List.rev !order)

let test_heap_empty () =
  let c = Clock.create () in
  check Alcotest.int "empty" 0 (Clock.pending c);
  check bool "step none" false (Clock.step c);
  Clock.run_until c 10.0;
  check flt "run_until an empty queue moves time" 10.0 (Clock.now c)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list small_nat)
    (fun l ->
      let c = Clock.create () in
      let order = ref [] in
      List.iter
        (fun t -> Clock.schedule_at c ~at:(float_of_int t) (fun () -> order := t :: !order))
        l;
      Clock.run c;
      List.rev !order = List.sort compare l)

(* Equal-time events pop in schedule order however pushes and pops
   interleave: the queue's (time, seq) order breaks every tie. *)
let prop_heap_seq_tiebreak =
  QCheck.Test.make ~name:"heap pops equal-time events in seq order" ~count:200
    QCheck.(list_of_size Gen.(0 -- 100) (pair (int_bound 8) bool))
    (fun ops ->
      let c = Clock.create () in
      let seq = ref 0 in
      let pushed = ref [] and popped = ref [] in
      List.iter
        (fun (time, do_pop) ->
          if do_pop then ignore (Clock.step c)
          else begin
            (* past times clamp to now: record the time it will fire at *)
            let e = (Float.max (float_of_int time) (Clock.now c), !seq) in
            incr seq;
            pushed := e :: !pushed;
            Clock.schedule_at c ~at:(float_of_int time) (fun () -> popped := e :: !popped)
          end)
        ops;
      Clock.run c;
      let popped = List.rev !popped in
      (* every event fired once, in (time, seq) order *)
      popped = List.sort compare !pushed)

(* A dispatched action is released at once: its vacated slot no longer
   references it, so what it captures is collectable while the queue
   still holds other events. *)
let test_heap_pop_releases () =
  let high_water = 512 and live = 32 in
  let c = Clock.create () in
  let weaks = Weak.create high_water in
  let push i =
    let captured = ref i in
    Weak.set weaks i (Some captured);
    Clock.schedule_at c ~at:(float_of_int i) (fun () -> ignore (Sys.opaque_identity !captured))
  in
  for i = 0 to high_water - 1 do
    push i
  done;
  for _ = 1 to high_water - live do
    ignore (Clock.step c)
  done;
  Gc.full_major ();
  let pinned lo hi =
    let n = ref 0 in
    for i = lo to hi - 1 do
      if Weak.check weaks i then incr n
    done;
    !n
  in
  check Alcotest.int "live events remain" live (Clock.pending c);
  check Alcotest.int "no dispatched action is pinned" 0 (pinned 0 (high_water - live));
  check Alcotest.int "queued actions stay" live (pinned (high_water - live) high_water);
  Clock.run c;
  Gc.full_major ();
  check Alcotest.int "a drained queue pins nothing" 0 (pinned 0 high_water)

(* Scheduling an event and dispatching it allocate nothing in the queue;
   the 2 words are the clock's new time, boxed when the step advances it
   (measured: 2.0). The times are boxed before the count, and 100 later
   events keep the heap deep. *)
let test_event_allocation () =
  let c = Clock.create () in
  let action () = () in
  for i = 1 to 100 do
    Clock.schedule_at c ~at:(1e9 +. float_of_int i) action
  done;
  let n = 10_000 in
  let times = List.init n (fun i -> float_of_int (i + 1)) in
  let pair at =
    Clock.schedule_at c ~at action;
    ignore (Clock.step c)
  in
  let w0 = Gc.minor_words () in
  List.iter pair times;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  check Alcotest.int "the deep events wait" 100 (Clock.pending c);
  if words > 2.05 then
    Alcotest.failf "schedule_at + step allocate %.2f words per event" words

let () =
  Alcotest.run "sim"
    [
      ( "clock",
        [
          Alcotest.test_case "starts at zero" `Quick test_time_starts_at_zero;
          Alcotest.test_case "time order" `Quick test_events_fire_in_time_order;
          Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
          Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
          Alcotest.test_case "run_until" `Quick test_run_until;
          Alcotest.test_case "negative delay clamps" `Quick test_negative_delay_clamps;
          Alcotest.test_case "past schedule_at clamps" `Quick test_schedule_at_past_clamps;
          Alcotest.test_case "step" `Quick test_step;
          Alcotest.test_case "advance never backwards" `Quick test_advance_never_backwards;
          QCheck_alcotest.to_alcotest prop_clock_monotone;
          Alcotest.test_case "non-finite times rejected" `Quick test_non_finite_rejected;
          QCheck_alcotest.to_alcotest prop_reference_order;
          Alcotest.test_case "event allocation" `Quick test_event_allocation;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "pop releases elements" `Quick test_heap_pop_releases;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
          QCheck_alcotest.to_alcotest prop_heap_seq_tiebreak;
        ] );
    ]
