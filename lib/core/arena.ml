(* Per-controller scratch arena for the segment-fill loop.

   The write path's checksum -> compress -> dedup -> RS fill pipeline used
   to allocate per block: a fresh 128 KiB LZ hash table, a Buffer, the
   compressed payload string, and the framed string, all just to blit the
   bytes into the segio and drop them. The arena owns one LZ scratch
   (epoch-stamped table + worst-case output buffer) and one frame Buffer,
   both reused for every block the controller stores, so the steady-state
   fill loop allocates nothing per block. A third buffer frames each
   block-index log record the same way. A controller is single-threaded
   over its write path (the simulated clock serialises everything), so
   its one arena needs no further discipline. *)

type t = {
  lz : Purity_compress.Lz.scratch;
  frame : Buffer.t; (* cleared and refilled per cblock frame *)
  log : Buffer.t; (* cleared and refilled per block-index log record *)
}

let create () =
  {
    lz = Purity_compress.Lz.create_scratch ();
    frame = Buffer.create (40 * 1024);
    log = Buffer.create 64;
  }
