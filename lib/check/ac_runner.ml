(* The stretched-pod (ActiveCluster) suite.

   Executes an {!Ac_plan} against a real stretched pod — two full
   simulated arrays, the lossy interconnect, the mediator — while
   {!Ac_model} shadows every write's outcome in two {!Model} views per
   stretched volume, one per array. The plan's [Create] events make the
   stretched volumes; I/O to a volume whose [Create] was shrunk away
   must fail with [No_such_volume], as the model predicts. The run loop,
   shrinking, replay and reports are {!Suite}'s; the execution digest is
   a fold over final content, counters and the simulated clock.

   The final audit heals every fault, drives a failback, then reads
   every block of every stretched volume from BOTH arrays directly
   (below the front door). After the failback the two views share every
   cell, so A's read pins the value B must reproduce — the divergence
   check; and an acked write is its cell's only candidate — the lost-ack
   check. *)

module Clock = Purity_sim.Clock
module Fa = Purity_core.Flash_array
module Ac = Purity_activecluster.Activecluster
module Link = Purity_activecluster.Link
module Mediator = Purity_activecluster.Mediator
module Registry = Purity_telemetry.Registry
module Acm = Ac_model

exception Violation = Suite.Violation

type ctx = {
  clock : Clock.t;
  ac : Ac.t;
  payloads : Payload.t;
  model : Acm.t;
  mutable digest : int;
}

let mix ctx v = ctx.digest <- Suite.mix ctx.digest v

(* No outstanding fault and the pod in sync: I/O has no excuse to fail. *)
let healthy ctx =
  Ac.status ctx.ac = Ac.Sync
  && Fa.is_online (Ac.array ctx.ac A)
  && Fa.is_online (Ac.array ctx.ac B)
  && Link.up (Ac.link ctx.ac)
  && Mediator.reachable (Ac.mediator ctx.ac)

let in_sync ctx = Ac.status ctx.ac = Ac.Sync

let apply_fault ctx (fault : Ac_plan.fault) =
  match fault with
  | Ac_plan.Cut_link -> Ac.cut_link ctx.ac
  | Ac_plan.Heal_link -> Ac.heal_link ctx.ac
  | Ac_plan.Lose_mediator -> Ac.lose_mediator ctx.ac
  | Ac_plan.Restore_mediator -> Ac.restore_mediator ctx.ac
  | Ac_plan.Crash s -> Ac.crash_side ctx.ac s
  | Ac_plan.Crash_both ->
    Ac.crash_side ctx.ac A;
    Ac.crash_side ctx.ac B

(* Hold a front-door I/O's result to the model's one predicted outcome.
   [Some v] for a success; [None] when the I/O never completed, failed as
   predicted, or was refused for a reason the pod owes no prediction for:
   out of space or NVRAM, or unavailable while some fault is outstanding. *)
let checked ctx op ~view ~block ~nblocks = function
  | None | Some (Error (`No_space | `Backpressure)) -> None
  | Some (Error `Unavailable) when not (healthy ctx) -> None
  | Some result ->
    let predicted = Acm.predict ctx.model ~view ~block ~nblocks in
    Suite.expect_outcome Ac_plan.pp_op op ~predicted result;
    Result.to_option result

let exec_op ctx (op : Ac_plan.op) =
  match op with
  | Ac_plan.Create { view; blocks } ->
    let result = Ac.create_stretched ctx.ac view ~blocks in
    let predicted =
      if Acm.exists ctx.model view then `Exists
      else if blocks <= 0 then `Out_of_range
      else `Ok
    in
    Suite.expect_outcome Ac_plan.pp_op op ~predicted result;
    if Result.is_ok result then Acm.create_volume ctx.model view ~blocks
  | Ac_plan.Write { side; view; block; nblocks; wid } ->
    let data = Payload.of_write ctx.payloads ~wid ~nblocks in
    (* [None]: never completed (e.g. the origin died under it) or
       refused: not acked, and the blocks may be torn on either side *)
    let acked =
      Clock.await ctx.clock (fun k -> Ac.write ctx.ac ~prefer:side ~volume:view ~block data k)
      |> checked ctx op ~view ~block ~nblocks
      |> Option.is_some
    in
    Acm.write_result ctx.model ~view ~block ~nblocks ~wid ~acked ~in_sync:(in_sync ctx)
  | Ac_plan.Write_racing { view; block; nblocks; wid_a; wid_b } ->
    (* both writes enter before the clock runs: their mirrors genuinely
       cross on the link *)
    let da = Payload.of_write ctx.payloads ~wid:wid_a ~nblocks in
    let db = Payload.of_write ctx.payloads ~wid:wid_b ~nblocks in
    let ra = ref None and rb = ref None in
    Ac.write ctx.ac ~prefer:A ~volume:view ~block da (fun r -> ra := Some r);
    Ac.write ctx.ac ~prefer:B ~volume:view ~block db (fun r -> rb := Some r);
    Clock.run ctx.clock;
    let acked r = match !r with Some (Ok ()) -> true | _ -> false in
    Acm.write_racing_result ctx.model ~view ~block ~nblocks ~wid_a ~wid_b
      ~acked_a:(acked ra) ~acked_b:(acked rb) ~in_sync:(in_sync ctx)
  | Ac_plan.Read { side; view; block; nblocks } ->
    Clock.await ctx.clock (fun k -> Ac.read ctx.ac ~prefer:side ~volume:view ~block ~nblocks k)
    |> checked ctx op ~view ~block ~nblocks
    |> Option.iter (fun (data, served) ->
           Suite.expect (Acm.check_read ctx.model ~side:served ~view ~block ~nblocks data))
  | Ac_plan.Settle -> (
    match Clock.await ctx.clock (fun k -> Ac.settle ctx.ac k) with
    | Some (Ac.Sync, Some s) -> Acm.settled ctx.model ~survivor:s
    | Some (_, _) | None -> ())
  | Ac_plan.Recover s ->
    if Clock.await ctx.clock (fun k -> Ac.recover_side ctx.ac s k) = None then
      raise (Violation ("recovery of array " ^ Ac.side_name s ^ " never completed"))

(* ---------- final audit ---------- *)

(* Read a whole volume from one array, below the pod's front door, and
   hold it to that array's view. After a successful failback both views
   share every cell, so A's observation pins the value B must reproduce. *)
let audit_array ctx side name blocks =
  let arr = Ac.array ctx.ac side in
  Suite.iter_chunks blocks (fun block nblocks ->
      match Clock.await ctx.clock (fun k -> Fa.read arr ~volume:name ~block ~nblocks k) with
      | Some (Ok data) ->
        mix ctx data;
        Suite.expect (Acm.check_read ctx.model ~side ~view:name ~block ~nblocks data)
      | Some (Error _) | None ->
        raise
          (Violation
             (Printf.sprintf "final audit: array %s failed reading %s[%d]"
                (Ac.side_name side) name block)))

let finalize ctx =
  (* heal the world, then fail back *)
  Ac.heal_link ctx.ac;
  Ac.restore_mediator ctx.ac;
  List.iter
    (fun s -> ignore (Clock.await ctx.clock (fun k -> Ac.recover_side ctx.ac s k)))
    [ Ac.A; Ac.B ];
  let rec drive attempts =
    match Clock.await ctx.clock (fun k -> Ac.settle ctx.ac k) with
    | Some (Ac.Sync, sv) -> (
      match sv with Some s -> Acm.settled ctx.model ~survivor:s | None -> ())
    | (Some _ | None) when attempts > 0 -> drive (attempts - 1)
    | Some (st, _) ->
      raise
        (Violation
           ("pod failed to return to sync after all faults healed: " ^ Ac.status_name st))
    | None -> raise (Violation "settle never completed")
  in
  drive 2;
  (* safety of the mediation history itself *)
  Suite.expect (Mediator.audit (Ac.mediator ctx.ac));
  if Fa.is_fenced (Ac.array ctx.ac A) || Fa.is_fenced (Ac.array ctx.ac B) then
    raise (Violation "an array is still fenced after failback");
  List.iter (fun s -> Runner.audit_space (Ac.array ctx.ac s)) [ Ac.A; Ac.B ];
  (* divergence / lost-ack audit: every block, both arrays *)
  List.iter
    (fun (name, blocks) ->
      audit_array ctx A name blocks;
      audit_array ctx B name blocks)
    (Ac.stretched ctx.ac);
  (* fold the pod's externally visible end state into the replay digest *)
  let c = Ac.counters ctx.ac and v = Registry.value in
  mix ctx
    ( v c.Ac.mirror_writes, v c.Ac.mirror_acked, v c.Ac.mirror_timeouts,
      v c.Ac.mediation_requests, v c.Ac.mediation_grants, v c.Ac.mediation_denials,
      v c.Ac.solo_writes, v c.Ac.resync_blocks );
  mix ctx
    ( v c.Ac.mediation_unreachable, v c.Ac.mirror_stale_drops, v c.Ac.redirects,
      v c.Ac.fences, v c.Ac.resyncs );
  let l = Ac.link ctx.ac in
  mix ctx (v l.Link.sent, v l.Link.delivered, v l.Link.dropped_loss, v l.Link.dropped_cut);
  mix ctx (List.length (Mediator.events (Ac.mediator ctx.ac)));
  mix ctx (int_of_float (Clock.now ctx.clock));
  ctx.digest

(* ---------- plan execution ---------- *)

let start clock seed =
  let a = Fa.create ~config:Suite.config ~clock () in
  let b = Fa.create ~config:Suite.config ~clock () in
  let ac = Ac.create ~a ~b () in
  let payloads = Payload.create ~seed ~block_size:Fa.block_size in
  { clock; ac; payloads; model = Model.create payloads; digest = 0 }

include Suite.Make (struct
  include Ac_plan

  type nonrec ctx = ctx

  let name = "activecluster"
  let start = start
  let exec_op = exec_op
  let apply_fault = apply_fault
  let after_event (_ : ctx) = ()
  let finalize = finalize
end)
