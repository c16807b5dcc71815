(* Helpers the test suites share, built on the libraries' public API. *)

module Rng = Purity_util.Rng

(* {!Purity_sim.Clock.await} for a call that must complete. *)
let await clock f =
  match Purity_sim.Clock.await clock f with
  | Some r -> r
  | None -> Alcotest.fail "operation never completed"

(* Run [f] with a generator seeded by [seed]. If [f] raises (a failing
   assertion, say), the seed is printed to stderr before the exception
   propagates, so a failing randomized test says how to reproduce it. *)
let with_seed_report ~seed f =
  try f (Rng.create ~seed)
  with exn ->
    Printf.eprintf "  [rng] failing seed: %LdL — rerun with this seed to reproduce\n%!" seed;
    raise exn

(* In-place Fisher–Yates shuffle. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* Original size over LZ-compressed size: a compressibility probe. *)
let lz_ratio s =
  if s = "" then 1.0
  else
    float_of_int (String.length s)
    /. float_of_int (String.length (Purity_compress.Lz.compress s))

(* Minor-heap words one call of [f] allocates, averaged over [n] calls
   after a warm-up call; the two [Gc.minor_words] floats add a few words
   in all. *)
let words_per_call n f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n
