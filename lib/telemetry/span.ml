module Clock = Purity_sim.Clock

type t = {
  tracer : tracer;
  span_id : int;
  span_name : string;
  parent : int option;
  started : float;
  mutable ended : float option;
  mutable span_tags : (string * string) list;  (* reverse insertion order *)
}

and tracer = {
  clock : Clock.t;
  capacity : int;
  ring : t option array;
  mutable head : int;  (* next write slot *)
  mutable len : int;
  mutable next_id : int;
  evicted : Registry.counter;
  mutable sink : (t -> unit) option;
}

let create_tracer ?(capacity = 1024) ~clock () =
  let capacity = max 1 capacity in
  {
    clock;
    capacity;
    ring = Array.make capacity None;
    head = 0;
    len = 0;
    next_id = 1;
    evicted = Registry.cell ();
    sink = None;
  }

let start tracer ?parent ?(tags = []) name =
  let id = tracer.next_id in
  tracer.next_id <- id + 1;
  {
    tracer;
    span_id = id;
    span_name = name;
    parent = Option.map (fun p -> p.span_id) parent;
    started = Clock.now tracer.clock;
    ended = None;
    span_tags = List.rev tags;
  }

let tag t k v = t.span_tags <- (k, v) :: t.span_tags

let finish ?(tags = []) t =
  match t.ended with
  | Some _ -> ()
  | None ->
    List.iter (fun (k, v) -> tag t k v) tags;
    let tr = t.tracer in
    t.ended <- Some (Clock.now tr.clock);
    if tr.ring.(tr.head) <> None then Registry.incr tr.evicted;
    tr.ring.(tr.head) <- Some t;
    tr.head <- (tr.head + 1) mod tr.capacity;
    if tr.len < tr.capacity then tr.len <- tr.len + 1;
    match tr.sink with Some f -> f t | None -> ()

let id t = t.span_id
let name t = t.span_name
let parent_id t = t.parent
let start_us t = t.started
let end_us t = t.ended
let duration_us t = Option.map (fun e -> e -. t.started) t.ended
let tags t = List.rev t.span_tags

let finished tracer =
  let acc = ref [] in
  (* the ring's oldest entry sits at head - len (mod capacity) *)
  for i = tracer.len - 1 downto 0 do
    let slot = (tracer.head - tracer.len + i + (2 * tracer.capacity)) mod tracer.capacity in
    match tracer.ring.(slot) with Some s -> acc := s :: !acc | None -> ()
  done;
  !acc

let clear tracer =
  Array.fill tracer.ring 0 tracer.capacity None;
  tracer.head <- 0;
  tracer.len <- 0

let drain tracer =
  let spans = finished tracer in
  clear tracer;
  spans

let dropped tracer = tracer.evicted
let set_sink tracer sink = tracer.sink <- sink

let to_json t =
  Json.Obj
    ([
       ("span", Json.Int t.span_id);
       ("name", Json.Str t.span_name);
     ]
    @ (match t.parent with Some p -> [ ("parent", Json.Int p) ] | None -> [])
    @ [ ("start_us", Json.Float t.started) ]
    @ (match t.ended with Some e -> [ ("end_us", Json.Float e) ] | None -> [])
    @
    match tags t with
    | [] -> []
    | kvs -> [ ("tags", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) kvs)) ])
