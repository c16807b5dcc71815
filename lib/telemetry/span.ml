module Clock = Purity_sim.Clock

type t = {
  tracer : tracer;
  span_id : int;
  span_name : string;
  parent : int; (* 0: no parent; span ids start at 1 *)
  started : float;
  mutable ended : float; (* nan until finished *)
  mutable span_tags : (string * string) list; (* insertion order *)
}

and tracer = {
  clock : Clock.t;
  capacity : int;
  ring : t array; (* [empty] marks a free slot *)
  mutable head : int; (* next write slot *)
  mutable len : int;
  mutable next_id : int;
  evicted : Registry.counter;
  mutable sink : (t -> unit) option;
}

(* What a free ring slot holds: a span no tracer ever hands out. *)
let empty =
  {
    tracer =
      {
        clock = Clock.create ();
        capacity = 0;
        ring = [||];
        head = 0;
        len = 0;
        next_id = 1;
        evicted = Registry.cell ();
        sink = None;
      };
    span_id = 0;
    span_name = "";
    parent = 0;
    started = Float.nan;
    ended = Float.nan;
    span_tags = [];
  }

let create_tracer ?(capacity = 1024) ~clock () =
  let capacity = max 1 capacity in
  {
    clock;
    capacity;
    ring = Array.make capacity empty;
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
    parent = (match parent with Some p -> p.span_id | None -> 0);
    started = Clock.now tracer.clock;
    ended = Float.nan;
    span_tags = tags;
  }

let add_tags t = function [] -> () | tags -> t.span_tags <- t.span_tags @ tags
let tag t k v = add_tags t [ (k, v) ]

let finish ?(tags = []) t =
  if Float.is_nan t.ended then begin
    add_tags t tags;
    let tr = t.tracer in
    t.ended <- Clock.now tr.clock;
    if tr.ring.(tr.head) != empty then Registry.incr tr.evicted;
    tr.ring.(tr.head) <- t;
    tr.head <- (tr.head + 1) mod tr.capacity;
    if tr.len < tr.capacity then tr.len <- tr.len + 1;
    match tr.sink with Some f -> f t | None -> ()
  end

let id t = t.span_id
let name t = t.span_name
let parent_id t = if t.parent = 0 then None else Some t.parent
let start_us t = t.started
let end_us t = if Float.is_nan t.ended then None else Some t.ended
let duration_us t = if Float.is_nan t.ended then None else Some (t.ended -. t.started)
let tags t = t.span_tags

let finished tracer =
  let acc = ref [] in
  (* the ring's oldest entry sits at head - len (mod capacity) *)
  for i = tracer.len - 1 downto 0 do
    let slot = (tracer.head - tracer.len + i + (2 * tracer.capacity)) mod tracer.capacity in
    let s = tracer.ring.(slot) in
    if s != empty then acc := s :: !acc
  done;
  !acc

let clear tracer =
  Array.fill tracer.ring 0 tracer.capacity empty;
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
    @ (if t.parent = 0 then [] else [ ("parent", Json.Int t.parent) ])
    @ [ ("start_us", Json.Float t.started) ]
    @ (if Float.is_nan t.ended then [] else [ ("end_us", Json.Float t.ended) ])
    @
    match t.span_tags with
    | [] -> []
    | kvs -> [ ("tags", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) kvs)) ])
