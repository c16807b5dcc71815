(* An instance of Fx_functor.Make: [check] forwards to the functor body. *)
include Fx_functor.Make (struct
  let bound = 10
end)

let recover x = check x [@@purity.lint.recovery_root]
