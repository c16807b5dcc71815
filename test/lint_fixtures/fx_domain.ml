(* Planted domain primitives, banned under [determinism]: line numbers are
   asserted by test_lint.ml — keep the banned calls on lines 3 and 5. *)
let counter = Atomic.make 0

let spawn f = Domain.spawn f

(* Pure chunk arithmetic over ints is allowed: must NOT fire. *)
let chunk ~lanes ~tasks lane = (lane * (tasks / lanes), tasks / lanes)
