(* The benchmark wall clock. Every experiment that needs real elapsed
   time reads it through this module, so the tree has exactly one
   sanctioned nondeterministic clock read — the waived [Sys.time] below —
   and purity.lint can flag any other as a replay hazard. *)

let[@purity.lint.allow
     "determinism: the bench harness is the one place wall-clock reads \
      belong; everything it times runs on the deterministic sim clock"] now_s
    () =
  Sys.time ()

(* Nanosecond processor time for Kernel_stats-style cycle attribution. *)
let now_ns () = int_of_float (now_s () *. 1e9)

(* Calibrated ops/s measurement: warm up, then run [batch]-sized chunks
   until [budget_s] of processor time has elapsed. Returns
   (ops per second, nanoseconds per op). *)
let time_ops ?(warmup = 200) ?(batch = 50) ?(budget_s = 0.25) f =
  for _ = 1 to warmup do
    f ()
  done;
  let start = now_s () in
  let n = ref 0 in
  while now_s () -. start < budget_s do
    for _ = 1 to batch do
      f ()
    done;
    n := !n + batch
  done;
  let elapsed = now_s () -. start in
  let ops = float_of_int !n in
  (ops /. elapsed, elapsed *. 1e9 /. ops)
