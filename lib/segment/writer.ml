module Varint = Purity_util.Varint
module Shelf = Purity_ssd.Shelf
module Drive = Purity_ssd.Drive
module Rs = Purity_erasure.Reed_solomon

type t = {
  layout : Layout.t;
  port : Shelf.port; (* the controller's; fenced once it crashes *)
  shelf : Shelf.t;
  rs : Rs.t;
  seg_id : int;
  members : Segment.member array;
  buffer : Bytes.t; (* payload_capacity bytes *)
  mutable data_len : int;
  log : Buffer.t; (* framed log records, in append order *)
  mutable seq_lo : int64;
  mutable seq_hi : int64;
  mutable sealed : bool;
}

let create ~layout ~port ~rs ~members ~id =
  if Array.length members <> Layout.members layout then
    invalid_arg "Writer.create: member count mismatch";
  if Rs.k rs <> layout.Layout.k || Rs.m rs <> layout.Layout.m then
    invalid_arg "Writer.create: RS geometry mismatch";
  {
    layout;
    port;
    shelf = Shelf.port_shelf port;
    rs;
    seg_id = id;
    members;
    buffer = Bytes.make (Layout.payload_capacity layout) '\000';
    data_len = 0;
    log = Buffer.create 4096;
    seq_lo = 0L;
    seq_hi = 0L;
    sealed = false;
  }

let id t = t.seg_id
let members t = t.members
let data_len t = t.data_len
let log_len t = Buffer.length t.log
let remaining t = Layout.payload_capacity t.layout - t.data_len - Buffer.length t.log
let is_empty t = t.data_len = 0 && Buffer.length t.log = 0

let append_data t s =
  if t.sealed then invalid_arg "Writer.append_data: sealed";
  let n = String.length s in
  if n > remaining t then invalid_arg "Writer.append_data: no room";
  let off = t.data_len in
  Bytes.blit_string s 0 t.buffer off n;
  t.data_len <- off + n;
  off

(* Same as [append_data], but blitting straight out of a caller's frame
   buffer — the write path reuses one Buffer per controller and lands
   frames here without an intermediate string. *)
let append_buffer t frame =
  if t.sealed then invalid_arg "Writer.append_buffer: sealed";
  let n = Buffer.length frame in
  if n > remaining t then invalid_arg "Writer.append_buffer: no room";
  let off = t.data_len in
  Buffer.blit frame 0 t.buffer off n;
  t.data_len <- off + n;
  off

(* A log record goes straight onto the log's back behind its frame (seq,
   length); one that does not fit is cut off again before the raise. *)
let open_log_frame t ~seq ~len =
  if t.sealed then invalid_arg "Writer.append_log: sealed";
  let start = Buffer.length t.log in
  Varint.write_i64 t.log seq;
  Varint.write t.log len;
  start

let close_log_frame t ~seq start =
  if remaining t < 0 then begin
    Buffer.truncate t.log start;
    invalid_arg "Writer.append_log: no room"
  end;
  if Int64.equal t.seq_lo 0L || Int64.compare seq t.seq_lo < 0 then t.seq_lo <- seq;
  if Int64.compare seq t.seq_hi > 0 then t.seq_hi <- seq

let append_log t ~seq record =
  let start = open_log_frame t ~seq ~len:(String.length record) in
  Buffer.add_string t.log record;
  close_log_frame t ~seq start

let[@purity.lint.hotpath] append_log_buffer t ~seq record =
  let start = open_log_frame t ~seq ~len:(Buffer.length record) in
  Buffer.add_buffer t.log record;
  close_log_frame t ~seq start

(* Serve a read from the in-memory buffer: Purity answers reads of
   not-yet-flushed segios from RAM. Valid for the data region only. *)
let peek_payload t ~off ~len =
  if off < 0 || len < 0 || off + len > t.data_len then None
  else Some (Bytes.sub_string t.buffer off len)

let decode_log_region region =
  let acc = ref [] in
  let pos = ref 0 in
  let continue = ref true in
  while !continue && !pos < Bytes.length region do
    match
      let seq, p = Varint.read_i64 region ~pos:!pos in
      let len, p = Varint.read region ~pos:p in
      if p + len > Bytes.length region then None
      else Some (seq, Bytes.sub_string region p len, p + len)
    with
    | Some (seq, record, next) ->
      acc := (seq, record) :: !acc;
      pos := next
    | None | (exception Invalid_argument _) -> continue := false
  done;
  List.rev !acc

(* Assemble per-shard write-unit chunks for one row. Data columns slice
   the segio buffer in place — it is allocated zeroed at payload capacity
   and only ever written up to [payload_len], so the slices carry the
   zero padding for free (no per-chunk make + blit). Parity columns get
   the RS encoding of the row; parity buffers are fresh per row because
   the simulated drive writes hold them until completion. *)
let row_chunks t ~row =
  let { Layout.k; write_unit = wu; _ } = t.layout in
  let data = Array.init k (fun c -> Bytes.sub t.buffer (((row * k) + c) * wu) wu) in
  let parity = Rs.encode t.rs data in
  Array.append data parity

(* Paper §4.4: at most two members of a write group program at once, so
   a read can always reconstruct around the writers from the rest. *)
let max_writers = 2

let finalize t ?(remap = fun ~replacing:_ ~exclude:_ -> None) ?tracer ?parent k =
  if t.sealed then invalid_arg "Writer.finalize: already sealed";
  t.sealed <- true;
  let module Span = Purity_telemetry.Span in
  (* Pack log records immediately after the data region. *)
  let log_bytes = Buffer.contents t.log in
  let log_off = t.data_len in
  let log_len = String.length log_bytes in
  Bytes.blit_string log_bytes 0 t.buffer log_off log_len;
  let payload_len = log_off + log_len in
  let { Layout.k = dk; write_unit = wu; _ } = t.layout in
  let rows_used = (payload_len + (dk * wu) - 1) / (dk * wu) in
  (* [seg] shares the members array, so remaps during the flush are
     reflected in the final description (and in late header copies). *)
  let seg =
    {
      Segment.id = t.seg_id;
      members = t.members;
      payload_len;
      log_off;
      log_len;
      seq_lo = t.seq_lo;
      seq_hi = t.seq_hi;
    }
  in
  let nm = Array.length t.members in
  (* Precompute each member's row chunks (fixed per column). *)
  let encode_span =
    Option.map
      (fun tr ->
        Span.start tr ?parent
          ~tags:[ ("segment", string_of_int t.seg_id); ("rows", string_of_int rows_used) ]
          "rs_encode")
      tracer
  in
  let row_data = Array.init rows_used (fun row -> row_chunks t ~row) in
  Option.iter (fun s -> Span.finish s) encode_span;
  let member_chunks i =
    List.init rows_used (fun row ->
        (t.layout.Layout.header_size + (row * wu), row_data.(row).(i)))
  in
  (* Staggered flush: at most [max_writers] members writing at once; each
     member's chunks go out strictly in order (append-only). A member
     whose drive fails before or during its writes is remapped to a fresh
     AU on a healthy drive and restarted from its header — the shard data
     is all in RAM, so the stripe still reaches full redundancy. With no
     spare drive the member is skipped and parity absorbs it. *)
  let pending_members = ref nm in
  let queue = Queue.create () in
  for i = 0 to nm - 1 do
    Queue.add i queue
  done;
  let active = ref 0 in
  (* one "program" span per member slot: started when the shard's writes
     begin, finished (with the final drive) when the shard completes *)
  let member_spans = Array.make (max 1 nm) None in
  let finish_member_span i =
    match member_spans.(i) with
    | Some s ->
      Span.tag s "drive" (string_of_int t.members.(i).Segment.drive);
      Span.finish s;
      member_spans.(i) <- None
    | None -> ()
  in
  let rec pump () =
    while !active < max_writers && not (Queue.is_empty queue) do
      let i = Queue.pop queue in
      incr active;
      start_member i
    done
  and member_done i =
    finish_member_span i;
    decr active;
    decr pending_members;
    if !pending_members = 0 then k seg else pump ()
  and try_remap i =
    let exclude =
      Array.to_list (Array.map (fun (m : Segment.member) -> m.Segment.drive) t.members)
    in
    match remap ~replacing:t.members.(i) ~exclude with
    | Some repl ->
      t.members.(i) <- repl;
      (match member_spans.(i) with Some s -> Span.tag s "remapped" "true" | None -> ());
      start_member i
    | None -> member_done i
  and start_member i =
    if Shelf.fenced t.port then ()
    else begin
      let m = t.members.(i) in
      let drive = Shelf.drive t.shelf m.Segment.drive in
      if not (Drive.is_online drive) then try_remap i
      else begin
        (match (tracer, member_spans.(i)) with
        | Some tr, None ->
          member_spans.(i) <-
            Some
              (Span.start tr ?parent
                 ~tags:
                   [ ("segment", string_of_int t.seg_id); ("shard", string_of_int i) ]
                 "program")
        | _ -> ());
        let header = Segment.encode_header t.layout seg ~shard:i in
        run_member i ((0, header) :: member_chunks i)
      end
    end
  and run_member i chunks =
    if Shelf.fenced t.port then ()
    else
      match chunks with
      | [] -> member_done i
      | (off, data) :: rest ->
        let m = t.members.(i) in
        let drive = Shelf.drive t.shelf m.Segment.drive in
        if Drive.au_fill drive ~au:m.Segment.au <> off then
          (* the device was swapped for a blank one (drive replacement)
             mid-shard: its append pointer no longer matches, so the
             chunks already written are gone — restart the shard on a
             fresh AU, exactly as for a mid-flush drive death *)
          try_remap i
        else
        Shelf.write_chunk t.port ~drive:m.Segment.drive ~au:m.Segment.au ~off ~data (function
          | Ok () -> run_member i rest
          | Error _ ->
            (* the drive died mid-flush: restart this shard elsewhere *)
            if Shelf.fenced t.port then () else try_remap i)
  in
  if nm = 0 then k seg else pump ()
