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

(* One physical cblock fetch serving several requested blocks. *)
type fetch = {
  ref_ : Blockref.t; (* index field unused here: whole-cblock fetch *)
  mutable slices : (int * int) list; (* (output block position, cblock index) *)
}

let plan t ~medium ~block ~nblocks =
  (* Resolve the whole range in one batched pass (each medium level does
     one lower_bound + walk per patch instead of a binary search per
     block), then group consecutive blocks that live in the same cblock
     into one fetch. *)
  let refs = resolve_range t ~medium ~block ~nblocks in
  let fetches : fetch list ref = ref [] in
  for i = 0 to nblocks - 1 do
    match refs.(i) with
    | None -> () (* unwritten: the output buffer already holds zeros *)
    | Some r -> (
      match !fetches with
      | f :: _ when Blockref.same_cblock f.ref_ r ->
        f.slices <- (i, r.Blockref.index) :: f.slices
      | _ -> fetches := { ref_ = r; slices = [ (i, r.Blockref.index) ] } :: !fetches)
  done;
  List.rev !fetches

(* Copy the requested 512 B slices out of one decoded cblock. *)
let rec blit_slices data out failed = function
  | [] -> ()
  | (out_block, cb_index) :: rest ->
    let src = cb_index * block_size in
    if src + block_size <= String.length data then
      Bytes.blit_string data src out (out_block * block_size) block_size
    else failed := true;
    blit_slices data out failed rest

(* Verify and decode a fetched frame once and copy its slices out. The
   decoded cblock is returned for the read cache; a frame that does not
   decode fails the read and yields nothing to cache. *)
let decode_slices frame out failed slices =
  match Cblock.decode frame ~pos:0 with
  | Some (_, data, _) ->
    blit_slices data out failed slices;
    Some data
  | None ->
    failed := true;
    None

let read t ~volume ~block ~nblocks k =
  let start = Clock.now t.clock in
  let fail e = Clock.schedule t.clock ~delay:0.0 (fun () -> k (Error e)) in
  if not t.online then fail `Offline
  else
    match Stbl.find_opt t.volumes volume with
    | None -> fail `No_such_volume
    | Some v ->
      if nblocks <= 0 || block < 0 || block + nblocks > v.blocks then fail `Out_of_range
      else begin
        let out = Bytes.make (nblocks * block_size) '\000' in
        let fetches = plan t ~medium:v.medium ~block ~nblocks in
        let rspan =
          Span.start t.tracer
            ~tags:
              [
                ("volume", volume);
                ("blocks", string_of_int nblocks);
                ("fetches", string_of_int (List.length fetches));
              ]
            "read"
        in
        let pending = ref (List.length fetches) in
        let failed = ref false in
        let finish () =
          if !failed then begin
            Span.finish ~tags:[ ("error", "media_failure") ] rspan;
            k (Error `Media_failure)
          end
          else begin
            Span.finish rspan;
            Histogram.record t.read_lat (Clock.now t.clock -. start);
            k
              (Ok
                 (Bytes.unsafe_to_string out
                 [@purity.lint.allow
                   "unsafe: result buffer published as string after last write"]))
          end
        in
        let settle () =
          decr pending;
          if !pending = 0 then finish ()
        in
        match fetches with
        | [] ->
          (* all-zero read: charge a trivial metadata-only latency *)
          Clock.schedule t.clock ~delay:1.0 finish
        | _ :: _ ->
          List.iter
            (fun f ->
              match unflushed_writer t f.ref_.Blockref.segment with
              | Some w -> (
                (* data still in the segio's RAM buffer: DRAM-speed read *)
                match
                  Writer.peek_payload w ~off:f.ref_.Blockref.off
                    ~len:f.ref_.Blockref.stored_len
                with
                | None ->
                  failed := true;
                  settle ()
                | Some frame ->
                  Clock.schedule t.clock ~delay:2.0 (fun () ->
                      ignore
                        (decode_slices
                           (Bytes.unsafe_of_string frame
                           [@purity.lint.allow "unsafe: frame decode view"])
                           out failed f.slices);
                      settle ()))
              | None -> (
                let cache_key = (f.ref_.Blockref.segment, f.ref_.Blockref.off) in
                match Lru.Ipair.find t.read_cache cache_key with
                | Some data ->
                  (* controller-DRAM hit: the cblock is cached decoded *)
                  Registry.incr t.ws.cache_hits;
                  Clock.schedule t.clock ~delay:2.0 (fun () ->
                      blit_slices data out failed f.slices;
                      settle ())
                | None -> (
                  Registry.incr t.ws.cache_misses;
                  match find_segment t f.ref_.Blockref.segment with
                  | None ->
                    failed := true;
                    settle ()
                  | Some seg ->
                    Io.read t.io seg ~off:f.ref_.Blockref.off
                      ~len:f.ref_.Blockref.stored_len (fun result ->
                        (match result with
                        | Error `Unrecoverable -> failed := true
                        | Ok frame -> (
                          match decode_slices frame out failed f.slices with
                          | Some data -> ignore (Lru.Ipair.add t.read_cache cache_key data)
                          | _ -> ()));
                        settle ()))))
            fetches
      end
