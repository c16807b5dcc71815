(* Planted hot-path allocation two call hops below the annotated root:
   the Bytes.create on line 4 must be reported with the witness chain
   root -> mid -> leaf. Lines asserted by test_lint.ml. *)
let leaf n = Bytes.create n

let mid n = leaf (n + 1)

let root n = Bytes.length (mid n) [@@purity.lint.hotpath]

(* The coldpath cut stops the walk: must NOT fire. *)
let coldleaf n = Bytes.create n [@@purity.lint.coldpath]

let root2 n = Bytes.length (coldleaf n) [@@purity.lint.hotpath]

(* A waived allocation below a root is tallied as waived, not reported;
   the same waiver on a def no root reaches tallies nothing. *)
let[@purity.lint.allow "hotalloc: planted fixture, tallied as waived"] waived_leaf n =
  Bytes.create n

let root3 n = Bytes.length (waived_leaf n) [@@purity.lint.hotpath]

let[@purity.lint.allow "hotalloc: planted fixture, reached by no root"] unreached n =
  Bytes.create n
