(* The third-party mediator.

   When the replication link dies, both arrays of a stretched pod can
   still be alive and serving — the classic split brain. ActiveCluster
   resolves it with a mediator deployed in a third failure domain: each
   array races to the mediator, the winner keeps the pod and continues
   solo, the loser fences itself. The mediator's one job is to make that
   race safe: it must never let both sides win, and it must fence the
   loser *before* the winner is told to proceed.

   [Core] is the pure state machine — no clock, no messages — so the
   qcheck property suite can drive arbitrary interleavings directly.
   The outer [t] wraps it in simulated round-trip delays and a
   reachability flag (a lost mediator answers nothing; requests time
   out with [`Unreachable]).

   Every transition appends to an event log. [audit_log] checks the two
   safety properties over any log:
   - at most one side holds the pod at any point;
   - every grant is preceded by the loser being fenced (since the last
     release). *)

module Clock = Purity_sim.Clock

type side = A | B

let other = function A -> B | B -> A
let side_name = function A -> "A" | B -> "B"

type outcome = [ `Granted | `Denied | `Unreachable ]

type log_event =
  | Requested of side
  | Fenced of side  (** recorded when the mediator fences the grant's loser *)
  | Granted of side
  | Denied of side
  | Released of side
  | Reachable of bool

let pp_log_event ppf = function
  | Requested s -> Format.fprintf ppf "requested(%s)" (side_name s)
  | Fenced s -> Format.fprintf ppf "fenced(%s)" (side_name s)
  | Granted s -> Format.fprintf ppf "granted(%s)" (side_name s)
  | Denied s -> Format.fprintf ppf "denied(%s)" (side_name s)
  | Released s -> Format.fprintf ppf "released(%s)" (side_name s)
  | Reachable b -> Format.fprintf ppf "reachable(%b)" b

module Core = struct
  type t = {
    mutable holder : side option;
    mutable fenced_a : bool;
    mutable fenced_b : bool;
    mutable reachable : bool;
    mutable rev_log : log_event list;
  }

  let create () =
    { holder = None; fenced_a = false; fenced_b = false; reachable = true; rev_log = [] }

  let log t e = t.rev_log <- e :: t.rev_log
  let events t = List.rev t.rev_log
  let holder t = t.holder
  let reachable t = t.reachable
  let is_fenced t = function A -> t.fenced_a | B -> t.fenced_b

  let set_fenced t s v =
    match s with A -> t.fenced_a <- v | B -> t.fenced_b <- v

  let set_reachable t v =
    if t.reachable <> v then begin
      t.reachable <- v;
      log t (Reachable v)
    end

  (* One mediation request. The decision is atomic at the mediator:
     - unreachable mediators answer nothing (the caller times out);
     - the current holder re-requesting is re-granted (idempotence: a
       retransmitted claim must not deadlock the winner);
     - anyone else while a holder exists is denied — including a fenced
       side racing back after a heal;
     - with no holder, the requester wins: the peer is fenced FIRST,
       then the grant is recorded and returned. The order is the safety
       property: a grant response reaching the winner implies the
       mediator has already marked the loser fenced, so even if the
       loser's own request is in flight it can only be denied. *)
  let request t s : outcome =
    if not t.reachable then `Unreachable
    else begin
      log t (Requested s);
      match t.holder with
      | Some h when h = s ->
        log t (Granted s);
        `Granted
      | Some _ ->
        log t (Denied s);
        `Denied
      | None ->
        set_fenced t (other s) true;
        log t (Fenced (other s));
        t.holder <- Some s;
        log t (Granted s);
        `Granted
    end

  (* The pod returns to symmetric active-active: the holder releases its
     claim and both fences lift. Only the holder can release; a stale
     release from the fenced loser is ignored. *)
  let release t s =
    match t.holder with
    | Some h when h = s ->
      t.holder <- None;
      set_fenced t A false;
      set_fenced t B false;
      log t (Released s)
    | _ -> ()
end

(* ---------- log audit (shared by qcheck suite and the AC runner) ---------- *)

let audit_log events =
  let holder = ref None in
  let fenced_a = ref false and fenced_b = ref false in
  let fenced = function A -> !fenced_a | B -> !fenced_b in
  let set_fenced s v = match s with A -> fenced_a := v | B -> fenced_b := v in
  let err = ref None in
  let fail i e msg =
    if !err = None then
      err := Some (Format.asprintf "mediator log event %d (%a): %s" i pp_log_event e msg)
  in
  List.iteri
    (fun i e ->
      match e with
      | Granted s -> (
        match !holder with
        | Some h when h <> s -> fail i e "granted while the peer held the pod"
        | Some _ -> () (* idempotent re-grant to the holder *)
        | None ->
          if not (fenced (other s)) then
            fail i e "granted before the loser was fenced";
          if fenced s then fail i e "granted to a fenced side";
          holder := Some s)
      | Fenced s -> set_fenced s true
      | Released s ->
        if !holder <> Some s then fail i e "released by a non-holder"
        else begin
          holder := None;
          fenced_a := false;
          fenced_b := false
        end
      | Requested _ | Denied _ | Reachable _ -> ())
    events;
  match !err with Some msg -> Error msg | None -> Ok ()

(* ---------- the clocked wrapper ---------- *)

type t = { core : Core.t; clock : Clock.t }

(* The request/response round trip to the third site, and how long a
   caller waits before concluding the mediator is lost. *)
let rtt_us = 1_000.0
let timeout_us = 5_000.0
let create ~clock () = { core = Core.create (); clock }

let core t = t.core
let holder t = Core.holder t.core
let set_reachable t v = Core.set_reachable t.core v
let reachable t = Core.reachable t.core
let events t = Core.events t.core
let audit t = audit_log (events t)

(* An async mediation race leg: the decision lands mid-flight (after the
   request propagates to the third site), the response after the full
   round trip. An unreachable mediator answers nothing; the caller's
   verdict arrives only at [timeout_us]. *)
let request t s k =
  Clock.schedule t.clock ~delay:(rtt_us /. 2.0) (fun () ->
      if Core.reachable t.core then begin
        let o = Core.request t.core s in
        Clock.schedule t.clock ~delay:(rtt_us /. 2.0) (fun () -> k o)
      end
      else
        Clock.schedule t.clock ~delay:timeout_us (fun () -> k `Unreachable))

let release t s =
  Clock.schedule t.clock ~delay:(rtt_us /. 2.0) (fun () ->
      if Core.reachable t.core then Core.release t.core s)
