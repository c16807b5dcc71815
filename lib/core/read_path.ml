(* The read path: (volume, block range) -> medium chain resolution
   (paper §4.5) -> block references -> coalesced cblock reads through the
   scheduler (read-around-write, reconstruction) -> verify + decompress
   once -> copy the requested 512 B slices out. The read cache keeps the
   decoded cblock, so a DRAM hit is a copy.

   Blocks with no reference anywhere in the chain read as zeros (thin
   provisioning); the paper's note that small reads "generally retrieve a
   single cblock" falls out of cblock sizing, visible in the coalescing
   statistics. *)

open State

type error = [ `No_such_volume | `Out_of_range | `Offline | `Media_failure ]

(* The blocks of [refs] that start a cblock fetch, written into [starts]
   while it has room; returns how many there are. A mapped block starts
   one unless the mapped block before it lives in the same cblock. *)
let fetch_starts (refs : Blockref.t option array) starts =
  let count = ref 0 and prev = ref None in
  for i = 0 to Array.length refs - 1 do
    match refs.(i) with
    | None -> () (* unwritten: read as zeros *)
    | Some r as cur ->
      let same = match !prev with Some p -> Blockref.same_cblock p r | None -> false in
      if not same then begin
        if !count < Array.length starts then starts.(!count) <- i;
        incr count;
        prev := cur
      end
  done;
  !count

(* The cblock fetches of a resolved range, as one flat int array of the
   blocks that start them: fetch [f] reads the cblock of
   [refs.(starts.(f))] and serves every mapped block before the next
   start, so a read that resolved to one cblock is one fetch. *)
let[@purity.lint.hotpath] plan refs =
  let starts =
    (Array.make (fetch_starts refs [||]) 0
    [@purity.lint.allow "hotalloc: the returned array, one int per fetch"])
  in
  ignore (fetch_starts refs starts);
  starts

(* Zeros into the output blocks no fetch serves: the unwritten ones. *)
let zero_unmapped refs out =
  for i = 0 to Array.length refs - 1 do
    if Option.is_none refs.(i) then Bytes.fill out (i * block_size) block_size '\000'
  done

(* One host read in flight: what its fetch events share, in place of
   closures over each piece. *)
type read = {
  st : State.t;
  refs : Blockref.t option array;
  out : Bytes.t;
  start : float;
  span : Span.t;
  k : (string, error) result -> unit;
  mutable pending : int; (* fetches not yet settled *)
  mutable failed : bool;
}

(* A cblock's read-cache key: its segment and offset packed into one
   int. *)
let cache_key (r : Blockref.t) =
  if r.off lsr 32 <> 0 || r.segment lsr 30 <> 0 then
    invalid_arg "Read_path.cache_key: segment or offset out of range";
  (r.segment lsl 32) lor r.off

(* Copy the mapped output blocks of [first .. last] out of their decoded
   cblock. *)
let blit_slices data r ~first ~last =
  for i = first to last do
    match r.refs.(i) with
    | None -> ()
    | Some (ref_ : Blockref.t) ->
      let src = ref_.index * block_size in
      if src + block_size <= String.length data then
        Bytes.blit_string data src r.out (i * block_size) block_size
      else r.failed <- true
  done

(* Verify and decode a fetched frame once and copy its slices out. The
   decoded cblock is returned for the read cache; a frame that does not
   decode fails the read and yields nothing to cache. *)
let decode_slices frame r ~first ~last =
  match Cblock.decode frame ~pos:0 with
  | Some (_, data, _) ->
    blit_slices data r ~first ~last;
    Some data
  | None ->
    r.failed <- true;
    None

let finish r =
  if r.failed then begin
    Span.finish ~tags:[ ("error", "media_failure") ] r.span;
    r.k (Error `Media_failure)
  end
  else begin
    Span.finish r.span;
    Histogram.record r.st.read_lat (Clock.now r.st.clock -. r.start);
    r.k
      (Ok
         (Bytes.unsafe_to_string r.out
         [@purity.lint.allow "unsafe: result buffer published as string after last write"]))
  end

let settle r =
  r.pending <- r.pending - 1;
  if r.pending = 0 then finish r

(* Start the fetch of the cblock of output blocks [first .. last]. *)
let fetch r ~first ~last =
  let t = r.st in
  let ref_ =
    match r.refs.(first) with
    | Some (ref_ : Blockref.t) -> ref_
    | None -> assert false (* a fetch starts on a mapped block *)
  in
  match unflushed_writer t ref_.segment with
  | Some w -> (
    (* data still in the segio's RAM buffer: DRAM-speed read *)
    match Writer.peek_payload w ~off:ref_.off ~len:ref_.stored_len with
    | None ->
      r.failed <- true;
      settle r
    | Some frame ->
      Clock.schedule t.clock ~delay:2.0 (fun () ->
          ignore
            (decode_slices
               (Bytes.unsafe_of_string frame [@purity.lint.allow "unsafe: frame decode view"])
               r ~first ~last);
          settle r))
  | None -> (
    let key = cache_key ref_ in
    match Lru.find t.read_cache key with
    | Some data ->
      (* controller-DRAM hit: the cblock is cached decoded *)
      Registry.incr t.ws.cache_hits;
      Clock.schedule t.clock ~delay:2.0 (fun () ->
          blit_slices data r ~first ~last;
          settle r)
    | None -> (
      Registry.incr t.ws.cache_misses;
      match find_segment t ref_.segment with
      | None ->
        r.failed <- true;
        settle r
      | Some seg ->
        Io.read t.io seg ~off:ref_.off ~len:ref_.stored_len (fun result ->
            (match result with
            | Error `Unrecoverable -> r.failed <- true
            | Ok frame -> (
              match decode_slices frame r ~first ~last with
              | Some data -> ignore (Lru.add t.read_cache key data)
              | None -> ()));
            settle r)))

let read t ~volume ~block ~nblocks k =
  let start = Clock.now t.clock in
  if not t.online then fail t k `Offline
  else
    match Stbl.find_opt t.volumes volume with
    | None -> fail t k `No_such_volume
    | Some v ->
      if nblocks <= 0 || block < 0 || block + nblocks > v.blocks then fail t k `Out_of_range
      else begin
        let refs = resolve_range t ~medium:v.medium ~block ~nblocks in
        let fetches = plan refs in
        let nfetches = Array.length fetches in
        (* every success path writes each mapped block *)
        let out = Bytes.create (nblocks * block_size) in
        zero_unmapped refs out;
        let span =
          Span.start t.tracer
            ~tags:
              [
                ("volume", volume);
                ("blocks", string_of_int nblocks);
                ("fetches", string_of_int nfetches);
              ]
            "read"
        in
        let r = { st = t; refs; out; start; span; k; pending = nfetches; failed = false } in
        if nfetches = 0 then
          (* all-zero read: charge a trivial metadata-only latency *)
          Clock.schedule t.clock ~delay:1.0 (fun () -> finish r)
        else
          for f = 0 to nfetches - 1 do
            let last = if f + 1 < nfetches then fetches.(f + 1) - 1 else nblocks - 1 in
            fetch r ~first:fetches.(f) ~last
          done
      end
