(* A bench-style user of Fx_exports: a [let module] alias, the unit
   passed whole to a functor (which takes [bound] only), direct calls. *)
let aliased x =
  let module E = Fx_exports in
  E.via_alias x

module I = Fx_functor.Make (Fx_exports)

let direct x = Fx_exports.via_bench x + Fx_exports.stale x + Fx_exports.guarded x
  + Fx_exports.misnamed x
