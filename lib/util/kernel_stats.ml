(* Per-kernel throughput accounting for the data-plane kernels (CRC32c,
   GF(256) XOR-multiply, LZ, fingerprinting). Bytes and call counts are
   always maintained — a couple of int stores per kernel invocation, noise
   next to the word loops they sit beside. Nanosecond totals need a real
   clock; the simulator has no business paying a syscall per cblock, so
   [ns] only accumulates while a wall-clock source is installed (the bench
   harness installs one around its runs). The array is single-domain, so
   every cell is a plain counter. *)

type kernel = {
  name : string;
  mutable bytes : int;  (* payload bytes processed by the fast kernel *)
  mutable calls : int;
  mutable ns : int;  (* wall-clock ns, only while a clock is installed *)
}

let make name = { name; bytes = 0; calls = 0; ns = 0 }
let crc = make "crc"
let gf = make "gf"
let rs = make "rs"
let lz_compress = make "lz_compress"
let lz_decompress = make "lz_decompress"
let fingerprint = make "fingerprint"
let all = [ crc; gf; rs; lz_compress; lz_decompress; fingerprint ]

(* wall-clock ns source; [None] outside bench runs *)
let clock : (unit -> int) option ref = ref None

let set_clock c = clock := c

let tick () = match !clock with None -> 0 | Some now -> now ()

let tock k ~bytes ~t0 =
  k.bytes <- k.bytes + bytes;
  k.calls <- k.calls + 1;
  match !clock with None -> () | Some now -> k.ns <- k.ns + now () - t0

let reset () =
  List.iter
    (fun k ->
      k.bytes <- 0;
      k.calls <- 0;
      k.ns <- 0)
    all
