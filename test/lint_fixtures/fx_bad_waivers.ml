(* Waiver forms purity.lint refuses: each attribute below is a [waiver]
   error, and no waiver can cover a waiver error. *)
let[@purity.lint.allow "bogus: no such rule"] unknown x = x

let[@purity.lint.allow "waiver: cover the refusal below"] self_waiver x =
  (x [@purity.lint.allow 42])

let[@purity.lint.allow "domain: retired, now determinism"] retired x = x

let[@purity.lint.allow "escape: retired with the domain pool"] retired_escape x = x

[@@@purity.lint.allow "unsafe: the rest of this module"]

let after b = Bytes.unsafe_get b 0
