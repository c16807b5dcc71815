(* An instance of Fx_functor.Make: [check] forwards to the functor body. *)
include Fx_functor.Make (struct
  let bound = 10
end)

let recover x = check x [@@purity.lint.recovery_root]

(* outside [Fx_exports.guarded]'s callers list *)
let guarded x = Fx_exports.guarded x
