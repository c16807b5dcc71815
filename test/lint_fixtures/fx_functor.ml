(* A functor body is its unit's one implementation: the raise on line 5
   is reached from a recovery root that calls an instance included in
   another unit (fx_instance.ml). Line asserted by test_lint.ml. *)
module Make (X : sig val bound : int end) = struct
  let check x = if x > X.bound then invalid_arg "over bound" else x
end
