(* Planted exception reachability: a partial match (line 5) and a
   failwith (line 7), both reachable from the recovery root with no
   intervening handler. Lines asserted by test_lint.ml; warning 8 is
   disabled for this library so the refutable [function] compiles. *)
let step = function Some x -> x

let fail_path x = if x < 0 then failwith "bad" else x

let deep_fail x = if x < 0 then invalid_arg "deep" else x

let recover x = step (Some (fail_path x)) [@@purity.lint.recovery_root]

(* A match-with-exception over the call is a declared handler boundary:
   the walk must NOT follow it into deep_fail. *)
let recover2 x =
  (match deep_fail x with v -> v | exception Invalid_argument _ -> 0)
  [@@purity.lint.recovery_root]

(* A waived failwith below a recovery root is tallied as waived. *)
let[@purity.lint.allow "raises: planted fixture, tallied as waived"] waived_fail x =
  if x < 0 then failwith "waived" else x

let recover3 x = waived_fail x [@@purity.lint.recovery_root]
