module Histogram = Purity_util.Histogram

(* The array is single-domain, so a counter is a plain cell. *)
type counter = int ref

type metric =
  | Counter of counter
  | Hist of Histogram.t
  | Derived_int of (unit -> int)
  | Derived_float of (unit -> float)

type t = { metrics : (string, metric) Hashtbl.t }

let create () = { metrics = Hashtbl.create 64 }

let family = function
  | Counter _ -> "counter"
  | Hist _ -> "histogram"
  | Derived_int _ -> "derived-int"
  | Derived_float _ -> "derived-float"

let[@purity.lint.allow
     "raises: deterministic double-registration type guard, not data-dependent"] clash
    key existing wanted =
  invalid_arg
    (Printf.sprintf "Telemetry.Registry: %S is a %s, not a %s" key (family existing) wanted)

let counter t key =
  match Hashtbl.find_opt t.metrics key with
  | Some (Counter c) -> c
  | Some m -> clash key m "counter"
  | None ->
    let c = ref 0 in
    Hashtbl.replace t.metrics key (Counter c);
    c

let histogram t key =
  match Hashtbl.find_opt t.metrics key with
  | Some (Hist h) -> h
  | Some m -> clash key m "histogram"
  | None ->
    let h = Histogram.create () in
    Hashtbl.replace t.metrics key (Hist h);
    h

let cell () = ref 0

let attach_counter t key c =
  match Hashtbl.find_opt t.metrics key with
  | Some (Counter c') when c' == c -> ()
  | Some m -> clash key m "counter"
  | None -> Hashtbl.replace t.metrics key (Counter c)

let derive_int t key f =
  match Hashtbl.find_opt t.metrics key with
  | Some (Derived_int _) | None -> Hashtbl.replace t.metrics key (Derived_int f)
  | Some m -> clash key m "derived-int"

let derive_float t key f =
  match Hashtbl.find_opt t.metrics key with
  | Some (Derived_float _) | None -> Hashtbl.replace t.metrics key (Derived_float f)
  | Some m -> clash key m "derived-float"

let incr c = Stdlib.incr c
let add c n = c := !c + n
let value c = !c

let read_int t key =
  match Hashtbl.find_opt t.metrics key with
  | Some (Counter c) -> !c
  | Some (Derived_int f) -> f ()
  | _ -> raise Not_found

let keys t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.metrics [] |> List.sort String.compare

(* ---------- snapshots ---------- *)

type hist_snapshot = {
  h_count : int;
  h_sum : float;
  h_mean : float;
  h_max : float;
  h_p50 : float;
  h_p90 : float;
  h_p99 : float;
  h_p999 : float;
  h_buckets : (float * int) list;
}

type value_snapshot = Int of int | Float of float | Hist of hist_snapshot

type snapshot = (string * value_snapshot) list

(* Percentile over a (bound, count) bucket list — the same "smallest bound
   covering p% of samples" rule Histogram.percentile uses, so snapshot and
   diff percentiles agree with the live histogram's. *)
let bucket_percentile buckets ~total ~max_v p =
  if total = 0 then 0.0
  else begin
    let target =
      let x = int_of_float (ceil (p /. 100.0 *. float_of_int total)) in
      if x < 1 then 1 else min x total
    in
    let rec scan acc = function
      | [] -> max_v
      | (bound, n) :: rest ->
        let acc = acc + n in
        if acc >= target then Float.min bound max_v else scan acc rest
    in
    scan 0 buckets
  end

let hist_snapshot_of ~count ~sum ~max_v ~buckets =
  let pct = bucket_percentile buckets ~total:count ~max_v in
  {
    h_count = count;
    h_sum = sum;
    h_mean = (if count = 0 then 0.0 else sum /. float_of_int count);
    h_max = max_v;
    h_p50 = pct 50.0;
    h_p90 = pct 90.0;
    h_p99 = pct 99.0;
    h_p999 = pct 99.9;
    h_buckets = buckets;
  }

let snapshot_hist h =
  let count = Histogram.count h in
  hist_snapshot_of ~count
    ~sum:(Histogram.mean h *. float_of_int count)
    ~max_v:(Histogram.max_value h) ~buckets:(Histogram.to_buckets h)

let snapshot t =
  keys t
  |> List.map (fun key ->
         let v =
           match Hashtbl.find t.metrics key with
           | Counter c -> Int !c
           | Hist h -> Hist (snapshot_hist h)
           | Derived_int f -> Int (f ())
           | Derived_float f -> Float (f ())
         in
         (key, v))

let find snap key = List.assoc_opt key snap

let diff_hist ~base ~current =
  let base_count bound =
    match List.assoc_opt bound base.h_buckets with Some n -> n | None -> 0
  in
  let buckets =
    List.filter_map
      (fun (bound, n) ->
        let d = n - base_count bound in
        if d > 0 then Some (bound, d) else None)
      current.h_buckets
  in
  let count = max 0 (current.h_count - base.h_count) in
  hist_snapshot_of ~count
    ~sum:(Float.max 0.0 (current.h_sum -. base.h_sum))
    ~max_v:current.h_max ~buckets

let diff ~base ~current =
  List.map
    (fun (key, v) ->
      match (v, find base key) with
      | Int n, Some (Int b) -> (key, Int (n - b))
      | Hist h, Some (Hist bh) -> (key, Hist (diff_hist ~base:bh ~current:h))
      | _ -> (key, v))
    current

let reset t =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> c := 0
      | Hist h -> Histogram.clear h
      | Derived_int _ | Derived_float _ -> ())
    t.metrics

(* ---------- pretty printing ---------- *)

let pp_value ppf = function
  | Int n -> Fmt.int ppf n
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then Fmt.pf ppf "%.0f" f
    else Fmt.pf ppf "%.4g" f
  | Hist h ->
    Fmt.pf ppf "n=%d mean=%.1f p50=%.0f p90=%.0f p99=%.0f p99.9=%.0f max=%.0f" h.h_count
      h.h_mean h.h_p50 h.h_p90 h.h_p99 h.h_p999 h.h_max

let top_segment key =
  match String.index_opt key '/' with
  | Some i -> String.sub key 0 i
  | None -> key

let pp_snapshot ppf snap =
  Fmt.pf ppf "@[<v>";
  let last_group = ref "" in
  List.iter
    (fun (key, v) ->
      let group = top_segment key in
      if group <> !last_group then begin
        if !last_group <> "" then Fmt.pf ppf "@,";
        Fmt.pf ppf "[%s]@," group;
        last_group := group
      end;
      Fmt.pf ppf "  %-42s %a@," key pp_value v)
    snap;
  Fmt.pf ppf "@]"
