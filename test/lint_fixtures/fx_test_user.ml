(* A test-style user: its reference does not count. *)
let t x = Fx_exports.via_test x + Fx_exports.guarded x
