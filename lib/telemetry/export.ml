module Clock = Purity_sim.Clock

type sink = string -> unit

type t = {
  clock : Clock.t;
  registry : Registry.t;
  tracer : Span.tracer option;
  array_id : string;
  sink : sink;
  mutable seq : int;
  mutable emitted : int;
}

let create ?(array_id = "array0") ?tracer ~clock ~registry ~sink () =
  { clock; registry; tracer; array_id; sink; seq = 0; emitted = 0 }

let json_of_value = function
  | Registry.Int n -> Json.Int n
  | Registry.Float f -> Json.Float f
  | Registry.Hist h ->
    Json.Obj
      [
        ("count", Json.Int h.Registry.h_count);
        ("sum", Json.Float h.Registry.h_sum);
        ("mean", Json.Float h.Registry.h_mean);
        ("max", Json.Float h.Registry.h_max);
        ("p50", Json.Float h.Registry.h_p50);
        ("p90", Json.Float h.Registry.h_p90);
        ("p99", Json.Float h.Registry.h_p99);
        ("p999", Json.Float h.Registry.h_p999);
        ( "buckets",
          Json.Arr
            (List.map
               (fun (bound, n) -> Json.Arr [ Json.Float bound; Json.Int n ])
               h.Registry.h_buckets) );
      ]

let json_of_snapshot snap =
  Json.Obj (List.map (fun (key, v) -> (key, json_of_value v)) snap)

let row ~kind ?(array_id = "array0") ?ts_us fields =
  Json.to_string
    (Json.Obj
       ([ ("kind", Json.Str kind); ("array", Json.Str array_id) ]
       @ (match ts_us with Some ts -> [ ("ts_us", Json.Float ts) ] | None -> [])
       @ fields))

let emit t line =
  t.emitted <- t.emitted + 1;
  t.sink line

let sample t =
  let now = Clock.now t.clock in
  t.seq <- t.seq + 1;
  let seq = t.seq in
  (* spans first: they describe activity leading up to this snapshot *)
  (match t.tracer with
  | None -> ()
  | Some tracer ->
    List.iter
      (fun span ->
        emit t
          (Json.to_string
             (Json.Obj
                [
                  ("kind", Json.Str "span");
                  ("array", Json.Str t.array_id);
                  ("seq", Json.Int seq);
                  ("ts_us", Json.Float now);
                  ("data", Span.to_json span);
                ])))
      (Span.drain tracer));
  emit t
    (Json.to_string
       (Json.Obj
          [
            ("kind", Json.Str "phone_home");
            ("array", Json.Str t.array_id);
            ("seq", Json.Int seq);
            ("ts_us", Json.Float now);
            ("metrics", json_of_snapshot (Registry.snapshot t.registry));
          ]))

let emitted t = t.emitted

let buffer_sink buf line =
  Buffer.add_string buf line;
  Buffer.add_char buf '\n'
