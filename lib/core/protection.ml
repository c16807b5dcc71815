module Clock = Purity_sim.Clock
module Stbl = Purity_util.Keytbl.Str

type policy = { every_us : float; keep : int }

type entry = {
  policy : policy;
  mutable counter : int;
  mutable retained : string list; (* oldest first *)
  mutable active : bool;
}

type t = {
  array : Flash_array.t;
  entries : entry Stbl.t;
  mutable stopped : bool;
  mutable total_taken : int;
}

let create array = { array; entries = Stbl.create 8; stopped = false; total_taken = 0 }

let tick t volume entry =
  if (not t.stopped) && entry.active && Flash_array.volume_exists t.array volume then begin
    entry.counter <- entry.counter + 1;
    let snap = Printf.sprintf "%s.auto-%d" volume entry.counter in
    (match Flash_array.snapshot t.array ~volume ~snap with
    | Ok () ->
      t.total_taken <- t.total_taken + 1;
      entry.retained <- entry.retained @ [ snap ];
      (* expire beyond the retention window: one medium drop each *)
      while List.length entry.retained > entry.policy.keep do
        match entry.retained with
        | oldest :: rest ->
          ignore (Flash_array.delete_snapshot t.array oldest);
          entry.retained <- rest
        | [] -> ()
      done
    | Error _ -> () (* e.g. array offline mid-failover: retry next tick *));
    true
  end
  else false

let rec schedule t volume entry =
  Clock.schedule (Flash_array.clock t.array) ~delay:entry.policy.every_us (fun () ->
      if tick t volume entry then schedule t volume entry)

let protect t ~volume policy =
  if Stbl.mem t.entries volume then Error `Already
  else if not (Flash_array.volume_exists t.array volume) then Error `No_such_volume
  else if policy.keep <= 0 || policy.every_us <= 0.0 then
    invalid_arg "Protection.protect: keep and cadence must be positive"
  else begin
    let entry = { policy; counter = 0; retained = []; active = true } in
    Stbl.replace t.entries volume entry;
    schedule t volume entry;
    Ok ()
  end

let stop t = t.stopped <- true

let snapshots t ~volume =
  match Stbl.find_opt t.entries volume with Some e -> e.retained | None -> []

let taken t = t.total_taken
