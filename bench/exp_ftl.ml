(* E11 — §2.1/§3.3: why Purity writes sequentially.

   A page-mapped FTL under host random writes amplifies and stalls; the
   same device under sequential (log-structured) writes does neither.
   This is the motivation experiment for the entire log-structured
   design. *)

open Bench_util
module Ftl = Purity_ssd.Ftl
module Rng = Purity_util.Rng
module Histogram = Purity_util.Histogram

let phase ftl rng ~random n =
  let hist = Histogram.create () in
  let host = Ftl.host_pages ftl in
  let cursor = ref 0 in
  for _ = 1 to n do
    let lpn =
      if random then Rng.int rng host
      else begin
        let l = !cursor in
        cursor := (l + 1) mod host;
        l
      end
    in
    Histogram.record hist (Ftl.write ftl ~lpn)
  done;
  hist

let run () =
  section "E11 / §2.1 — random writes against a page-mapped FTL (motivation)";
  let rng = Rng.create ~seed:111L in
  (* sequential (log-structured) use *)
  let seq_ftl = Ftl.create () in
  let n = 3 * Ftl.host_pages seq_ftl in
  let seq_hist = phase seq_ftl rng ~random:false n in
  (* random overwrite use *)
  let rnd_ftl = Ftl.create () in
  let _fill = phase rnd_ftl rng ~random:false (Ftl.host_pages rnd_ftl) in
  let rnd_hist = phase rnd_ftl rng ~random:true n in
  Printf.printf "  %-24s %18s %18s\n" "" "sequential writes" "random writes";
  Printf.printf "  %-24s %17.2fx %17.2fx\n" "write amplification"
    (Ftl.write_amplification seq_ftl)
    (Ftl.write_amplification rnd_ftl);
  Printf.printf "  %-24s %15.0f us %15.0f us\n" "write latency p50"
    (Histogram.percentile seq_hist 50.0)
    (Histogram.percentile rnd_hist 50.0);
  Printf.printf "  %-24s %15.0f us %15.0f us\n" "write latency p99.9"
    (Histogram.percentile seq_hist 99.9)
    (Histogram.percentile rnd_hist 99.9);
  Printf.printf "  %-24s %15.0f us %15.0f us\n" "write latency max"
    (Histogram.max_value seq_hist) (Histogram.max_value rnd_hist);
  (* both devices join one registry under distinct prefixes; the snapshot
     rows land in BENCH_E11.json alongside the printed table *)
  let reg = Purity_telemetry.Registry.create () in
  Ftl.register_telemetry ~prefix:"ftl/sequential" seq_ftl reg;
  Ftl.register_telemetry ~prefix:"ftl/random" rnd_ftl reg;
  let rnd key = Purity_telemetry.Registry.read_int reg ("ftl/random/" ^ key) in
  Printf.printf "\n  random phase: %d erases, %d GC relocations for %d host writes\n"
    (rnd "erases") (rnd "gc_relocations") (rnd "host_writes");
  List.iter
    (fun (key, v) ->
      emit_row ~kind:"bench_metric"
        [
          ("key", Json.Str key);
          ("value", Purity_telemetry.Export.json_of_value v);
        ])
    (Purity_telemetry.Registry.snapshot reg);
  Printf.printf
    "\n  Paper: \"flash translation layers behave erratically when exposed to\n\
    \  random writes\" -> Purity presents drives with large sequential writes.\n";
  Printf.printf "  Shape check: random WA > 1.3x while sequential ~1.0x -> %s\n"
    (if Ftl.write_amplification rnd_ftl > 1.3 && Ftl.write_amplification seq_ftl < 1.05 then
       "HOLDS"
     else "DIVERGES");
  Printf.printf "  Shape check: random p99.9 >> sequential p99.9 -> %s\n"
    (if Histogram.percentile rnd_hist 99.9 > 5.0 *. Histogram.percentile seq_hist 99.9 then
       "HOLDS"
     else "DIVERGES")
