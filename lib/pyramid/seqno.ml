type t = { mutable last : int64 }

let create () = { last = 0L }

let next t =
  t.last <- Int64.add t.last 1L;
  t.last

let current t = t.last

let restore_at_least t seq =
  if Int64.compare seq t.last > 0 then t.last <- seq
