(* An interface for the unused_export pass; lines asserted by
   test_lint.ml. Only fx_test_user.ml references [via_test]. *)
val unused : int -> int
val via_alias : int -> int
val bound : int
val via_bench : int -> int
val via_test : int -> int
val waived : int -> int [@@purity.lint.allow "unused_export: test_lint waivers"]
val stale : int -> int [@@purity.lint.allow "unused_export: no longer true"]
