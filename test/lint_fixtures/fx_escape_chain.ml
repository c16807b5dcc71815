(* Planted transitive domain-escape: the closure submitted on line 12
   captures nothing mutable, but calls [helper], which bumps the
   module-level [counter]. It must fire at the submission site with the
   witness chain submitter -> helper. The waived submission reaches the
   same counter and must not fire. Lines asserted by test_lint.ml. *)
let counter = ref 0

let helper i =
  incr counter;
  i

let submitter pool = Purity_par.Pool.map pool ~tasks:4 (fun ~lane:_ i -> helper i)

let[@purity.lint.allow "escape: planted fixture; nothing reads [counter]"] waived pool =
  Purity_par.Pool.map pool ~tasks:4 (fun ~lane:_ i -> helper i)
