(* The traced run's span sink. It keeps every finished span in memory
   (written out only once the run is over), stamps host time on the
   nvram_commit -> apply hand-off of each write, and rolls spans up into
   count, total and self simulated time per span name. Self time is a
   span's duration minus the part of it covered by its child spans. *)

module Span = Purity_telemetry.Span
module Json = Purity_telemetry.Json
module Export = Purity_telemetry.Export

type t = {
  mutable spans : Span.t list;  (** newest first *)
  mutable count : int;
  commit_done : (int, int) Hashtbl.t;  (** write span id -> host ns its commit finished *)
  mutable apply_ns : int;
  mutable applies : int;
}

let create () =
  { spans = []; count = 0; commit_done = Hashtbl.create 64; apply_ns = 0; applies = 0 }

let sink t s =
  t.spans <- s :: t.spans;
  t.count <- t.count + 1;
  match (Span.name s, Span.parent_id s) with
  | "nvram_commit", Some w -> Hashtbl.replace t.commit_done w (Wall.now_ns ())
  | "apply", Some w -> (
    match Hashtbl.find_opt t.commit_done w with
    | Some t0 ->
      Hashtbl.remove t.commit_done w;
      t.apply_ns <- t.apply_ns + (Wall.now_ns () - t0);
      t.applies <- t.applies + 1
    | None -> ())
  | _ -> ()

let install t tracer = Span.set_sink tracer (Some (sink t))

(* Spans still in a tracer's ring that the sink never saw (recovery runs
   on the spare controller's fresh tracer, before the sink can be
   installed on it). *)
let absorb t tracer = List.iter (fun s -> t.spans <- s :: t.spans) (Span.drain tracer)

let duration s = Option.value ~default:0.0 (Span.duration_us s)

(* [ok_only] leaves out spans tagged with an error (an NVRAM commit
   refused for backpressure finishes at once). *)
let durations ?(ok_only = false) t name =
  let x = Samples.create () in
  List.iter
    (fun s ->
      if Span.name s = name && not (ok_only && List.mem_assoc "error" (Span.tags s)) then
        Samples.add x (duration s))
    t.spans;
  x

type roll = { name : string; n : int; total_us : float; self_us : float }

let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> (match cur with Some (a, b) -> acc +. (b -. a) | None -> acc)
    | (a, b) :: rest -> (
      match cur with
      | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
      | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest
      | None -> go acc (Some (a, b)) rest)
  in
  go 0.0 None clipped

let rollup t =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      match (Span.parent_id s, Span.end_us s) with
      | Some p, Some e ->
        let l = Option.value ~default:[] (Hashtbl.find_opt children p) in
        Hashtbl.replace children p ((Span.start_us s, e) :: l)
      | _ -> ())
    t.spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match Span.end_us s with
      | None -> ()
      | Some e ->
        let d = e -. Span.start_us s in
        let kids = Option.value ~default:[] (Hashtbl.find_opt children (Span.id s)) in
        let self = d -. covered ~lo:(Span.start_us s) ~hi:e kids in
        let n, tot, sf =
          Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name (Span.name s))
        in
        Hashtbl.replace by_name (Span.name s) (n + 1, tot +. d, sf +. self))
    t.spans;
  Hashtbl.fold (fun name (n, total_us, self_us) acc -> { name; n; total_us; self_us } :: acc) by_name []
  |> List.sort (fun a b -> String.compare a.name b.name)

(* Raw spans and the roll-up as JSONL in the phone-home exporter's line
   schema ([kind], [array], [seq], [ts_us], payload). *)
let write_jsonl t rolls ~array_id ~path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("kind", Json.Str "span");
                ("array", Json.Str array_id);
                ("seq", Json.Int 1);
                ("ts_us", Json.Float (Option.value ~default:(Span.start_us s) (Span.end_us s)));
                ("data", Span.to_json s);
              ]));
      output_char oc '\n')
    (List.rev t.spans);
  List.iter
    (fun r ->
      output_string oc
        (Export.row ~kind:"span_rollup" ~array_id
           [
             ("name", Json.Str r.name);
             ("count", Json.Int r.n);
             ("total_sim_us", Json.Float r.total_us);
             ("self_sim_us", Json.Float r.self_us);
           ]);
      output_char oc '\n')
    rolls;
  close_out oc
