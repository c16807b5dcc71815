(* A hot-path root reaches an allocating function only through a
   [let module] alias: the Bytes.create on line 5 must be reported with
   the chain root -> Inner.leaf. Line asserted by test_lint.ml. *)
module Inner = struct
  let leaf n = Bytes.create n
end

let root n =
  let module L = Inner in
  Bytes.length (L.leaf n)
[@@purity.lint.hotpath]
