(* Host time. The simulator's own clock is simulated microseconds; every
   host-side (wall) measurement in the benchmark reads this monotonic
   nanosecond counter instead. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let us_since t0 = float_of_int (now_ns () - t0) /. 1e3
