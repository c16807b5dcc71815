(* The stretched pod's reference model: a thin mapping onto {!Model}.

   Two arrays serve the same blocks, concurrent writes from opposite
   sides may be serialized either way, a partition lets exactly one side
   keep serving, and a failback must reconverge the pair. The contract:

   - an acknowledged write while the pod is in sync is on BOTH arrays
     and can never be lost or reverted (lost-ack detection);
   - an acknowledged write while one side serves solo must survive the
     failback (the survivor's bytes win);
   - concurrent writes to the same block may resolve to either writer —
     but to the SAME writer on both arrays (divergence detection);
   - within one array, an observed value can only change when a write,
     a race resolution, or a reconciliation permits it.

   Each stretched volume [v] is two {!Model} views, [v@A] and [v@B].
   While the pod is in sync they share cells, so the first read from
   either array pins the block for both. A write whose effect may differ
   between the arrays (unacked, or acked out of sync) gets a cell of its
   own in each view; [settled] (a completed failback) makes the loser's
   view share the survivor's cells again. *)

module Mediator = Purity_activecluster.Mediator

type side = Mediator.side = A | B
type t = Model.t

let at view side = view ^ "@" ^ Mediator.side_name side
let exists t view = Model.exists t (at view A)

let create_volume t name ~blocks =
  List.iter (fun s -> Model.create_volume t (at name s) ~blocks) [ A; B ]

let predict t ~view = Model.predict t ~write:false ~view:(at view A)

(* Write [wid] into both views: one cell both share, or a cell each. *)
let put t ~view ~block ~nblocks ~wid ~acked ~shared =
  if shared then begin
    Model.write t ~view:(at view A) ~block ~wid ~nblocks ~acked;
    Model.share t ~from:(at view A) ~into:(at view B) ~block ~nblocks
  end
  else List.iter (fun s -> Model.write t ~view:(at view s) ~block ~wid ~nblocks ~acked) [ A; B ]

(* An acked in-sync write: one cell, both arrays, irrevocable. An acked
   write with the pod out of sync: the value on each array that can
   serve it, pinned per array until a failback picks the survivor. An
   unacked write: the new value or the old, per array. *)
let write_result t ~view ~block ~nblocks ~wid ~acked ~in_sync =
  put t ~view ~block ~nblocks ~wid ~acked ~shared:(acked && in_sync)

(* Two racing writes to the same range, one from each side. Last-writer-
   wins may pick either: [wid_a] on top of [wid_b], both candidates, and
   the old value too if neither was acked. If both were acked and the
   pod stayed in sync, the arrays agree on ONE of them (collapsed by the
   first read). *)
let write_racing_result t ~view ~block ~nblocks ~wid_a ~wid_b ~acked_a ~acked_b ~in_sync =
  let shared = acked_a && acked_b && in_sync in
  put t ~view ~block ~nblocks ~wid:wid_b ~acked:(acked_a || acked_b) ~shared;
  put t ~view ~block ~nblocks ~wid:wid_a ~acked:false ~shared

(* Audit bytes array [side] returned for a range. *)
let check_read t ~side ~view = Model.check_read t ~view:(at view side)

(* A failback completed with [survivor]'s content authoritative: the
   loser's view of every stretched volume shares the survivor's cells. *)
let settled t ~survivor =
  List.iter
    (fun (name, _, nblocks) ->
      match String.split_on_char '@' name with
      | [ view; s ] when s = Mediator.side_name survivor ->
        Model.share t ~from:name ~into:(at view (Mediator.other survivor)) ~block:0 ~nblocks
      | _ -> ())
    (Model.listing t)
