module Ranges = Purity_encoding.Ranges

include Pyramid_intf

module Make (P : Patch.S) = struct
  module Patch = P
  module Fact = P.Fact
  module K = Fact.Key
  module Tbl = Hashtbl.Make (K)

  type key = Fact.key
  type value = Fact.value
  type fact = Fact.t

  type policy = Elide of (Fact.t -> int) | Tombstones

  (* The memtable is three arrays: [facts] in arrival order; [older.(i)]
     the previous fact of fact [i]'s key (-1 at its oldest), so each key's
     facts form a chain newest-first; and [index], an open-addressing
     table from a key to its newest fact (-1 for an empty slot), a power
     of two at least twice [facts]' capacity. A flush clears [index] and
     keeps all three, so the steady-state insert allocates nothing. *)
  type t = {
    name : string;
    policy : policy;
    flush_count : int;
    mutable facts : Fact.t array; (* [||] until the first insert *)
    mutable older : int array;
    mutable index : int array;
    mutable index_shift : int; (* Sys.int_size - log2 (length index) *)
    mutable memtable_count : int;
    mutable patches : Patch.t list; (* shallowest (newest) first *)
    mutable elide_ranges : Ranges.t; (* every elided id *)
    mutable max_seq : int64;
    (* fast-path accounting, read back through the telemetry registry *)
    mutable stat_probes : int; (* patch consults attempted *)
    mutable stat_fence_skips : int; (* rejected by key-range fence *)
  }

  (* The smallest power of two at least twice [capacity], as its log2. *)
  let index_bits capacity =
    let bits = ref 1 in
    while 1 lsl !bits < 2 * capacity do
      incr bits
    done;
    !bits

  let create ?(memtable_flush_count = 1024) ~policy ~name () =
    let capacity = max 1 (min 64 memtable_flush_count) in
    let bits = index_bits capacity in
    {
      name;
      policy;
      flush_count = memtable_flush_count;
      facts = [||];
      older = Array.make capacity (-1);
      index = Array.make (1 lsl bits) (-1);
      index_shift = Sys.int_size - bits;
      memtable_count = 0;
      patches = [];
      elide_ranges = Ranges.empty;
      max_seq = 0L;
      stat_probes = 0;
      stat_fence_skips = 0;
    }

  (* The [index] slot holding the newest fact of the key [o] steps after
     [lo] (see [K.offset]), or the empty slot where it would go; the key
     itself is never built. The probe starts at a multiply-shift of the
     key's hash: keys that hash to neighbours (a medium's consecutive
     blocks) start far apart instead of forming one long run. *)
  let slot_at t lo o =
    let index = t.index in
    let mask = Array.length index - 1 in
    let s = ref ((K.hash_at lo o * 0x1E3779B97F4A7C15) lsr t.index_shift) in
    while
      let i = index.(!s) in
      i >= 0 && K.offset lo t.facts.(i).Fact.key <> o
    do
      s := (!s + 1) land mask
    done;
    !s

  let slot t key = slot_at t key 0

  (* The newest memtable fact of [key]; -1 when it has none. *)
  let newest t key = t.index.(slot t key)

  (* Room for one more fact ([f] fills the fresh slots): the first insert
     sizes [facts] to [older]; later ones double all three arrays, up to
     the flush count, and re-index the facts in arrival order so each
     key's slot ends on its newest. *)
  let[@purity.lint.coldpath] grow t f =
    let n = Array.length t.facts in
    if n = 0 then t.facts <- Array.make (Array.length t.older) f
    else begin
      let capacity = min (2 * n) (max 1 t.flush_count) in
      let facts = Array.make capacity f and older = Array.make capacity (-1) in
      Array.blit t.facts 0 facts 0 n;
      Array.blit t.older 0 older 0 n;
      let bits = index_bits capacity in
      t.facts <- facts;
      t.older <- older;
      t.index <- Array.make (1 lsl bits) (-1);
      t.index_shift <- Sys.int_size - bits;
      for i = 0 to n - 1 do
        t.index.(slot t facts.(i).Fact.key) <- i
      done
    end

  (* [f] on each memtable fact of [key], newest first. *)
  let iter_memtable_key t key f =
    let i = ref (newest t key) in
    while !i >= 0 do
      f t.facts.(!i);
      i := t.older.(!i)
    done

  (* The memtable's facts in arrival order, in an exact-size copy. *)
  let memtable_facts t = Array.sub t.facts 0 t.memtable_count

  let clear_memtable t =
    Array.fill t.index 0 (Array.length t.index) (-1);
    t.memtable_count <- 0

  let name t = t.name
  let policy_is_elision t = match t.policy with Elide _ -> true | Tombstones -> false

  let bump_seq t seq = if Int64.compare seq t.max_seq > 0 then t.max_seq <- seq

  (* Elide ids are never reused, so filtering against the whole table is
     always safe. An empty table elides nothing, whatever the rule says. *)
  let elided t f =
    match t.policy with
    | Tombstones -> false
    | Elide rule -> Ranges.range_count t.elide_ranges > 0 && Ranges.mem t.elide_ranges (rule f)

  let not_elided t f = not (elided t f)

  (* Size-tiered maintenance: after a flush, merge the shallowest patches
     while the newer one has grown to at least half the older one's size.
     This keeps the patch count logarithmic in the number of flushes, like
     the background merge strategies of the LSM literature the paper cites
     (elided facts are dropped by the merges along the way). *)
  let rec auto_compact t =
    match t.patches with
    | a :: b :: rest when 2 * Patch.count a >= Patch.count b ->
      t.patches <- Patch.merge_keep a b ~keep:(not_elided t) :: rest;
      auto_compact t
    | _ -> ()

  (* Once per flush count of inserts, so off the insert's steady state. *)
  let[@purity.lint.coldpath] flush t =
    if t.memtable_count > 0 then begin
      t.patches <- Patch.of_array (memtable_facts t) :: t.patches;
      clear_memtable t;
      auto_compact t
    end

  let[@purity.lint.hotpath] insert_fact t (f : Fact.t) =
    let s = slot t f.key in
    let head = t.index.(s) in
    (* Idempotence at the earliest point: drop exact (key, seq) repeats. *)
    let i = ref head in
    while !i >= 0 && not (Int64.equal t.facts.(!i).Fact.seq f.seq) do
      i := t.older.(!i)
    done;
    if !i < 0 then begin
      let n = t.memtable_count in
      (* growth re-indexes, so the slot is found again *)
      let s =
        if n < Array.length t.facts then s
        else begin
          grow t f;
          slot t f.key
        end
      in
      t.facts.(n) <- f;
      t.older.(n) <- head;
      t.index.(s) <- n;
      t.memtable_count <- n + 1;
      bump_seq t f.seq;
      if t.memtable_count >= t.flush_count then flush t
    end

  let insert t ~seq ~key ~value = insert_fact t (Fact.make ~key ~value ~seq)

  let delete t ~seq ~key =
    match t.policy with
    | Tombstones -> insert_fact t (Fact.tombstone ~key ~seq)
    | Elide _ -> invalid_arg "Pyramid.delete: elision-policy table; use elide_range"

  let elide_range t ~seq ~lo ~hi =
    match t.policy with
    | Tombstones -> invalid_arg "Pyramid.elide_range: tombstone-policy table; use delete"
    | Elide _ ->
      if lo > hi then invalid_arg "Pyramid.elide_range: lo > hi";
      t.elide_ranges <- Ranges.add_range t.elide_ranges ~lo ~hi;
      bump_seq t seq

  let elide_id t ~seq id = elide_range t ~seq ~lo:id ~hi:id

  (* The per-patch scan, kept as the reference implementation: the
     equivalence properties in test_pyramid.ml, the resolution audit and
     the before/after rows of bench/exp_metadata_hotpath.ml compare
     against it. Every source is consulted and the highest seq wins:
     patches may overlap in sequence ranges after recovery. *)
  let latest_fact_naive t key =
    let best = ref None in
    let consider f =
      match !best with
      | Some b when Int64.compare b.Fact.seq f.Fact.seq >= 0 -> ()
      | _ -> best := Some f
    in
    iter_memtable_key t key consider;
    List.iter (fun p -> List.iter consider (Patch.find p key)) t.patches;
    !best

  (* A fact's live value: tombstoned and elided facts read as absent. *)
  let live_value t f = if Fact.is_tombstone f || elided t f then None else f.Fact.value

  let resolve_fact t = function None -> None | Some f -> live_value t f

  let find_naive t key = resolve_fact t (latest_fact_naive t key)

  (* The patch half of [find_run], shallowest patch first: a recursive
     walk, so no closure is built per call. *)
  let rec find_run_patches t ~keys ~span ~into = function
    | [] -> ()
    | p :: deeper ->
      t.stat_probes <- t.stat_probes + 1;
      if not (Patch.run_overlaps p ~keys ~span) then
        t.stat_fence_skips <- t.stat_fence_skips + 1
      else Patch.find_run p ~keys ~span ~into;
      find_run_patches t ~keys ~span ~into deeper

  (* Batched lookup for runs of [span] consecutive keys: each memtable
     key probed in place, then one lower_bound and one sequential walk
     per patch, instead of a search per key. Slot [r * span + o] of
     [into] is the key [o] steps after [keys.(r)]; it ends holding that
     key's latest fact, or [Fact.absent] when the table holds none.
     Retractions are NOT applied: read each slot through [live_value]. *)
  let[@purity.lint.hotpath] find_run t ~keys ~span ~into =
    let runs = Array.length keys in
    Array.fill into 0 (runs * span) Fact.absent;
    for r = 0 to runs - 1 do
      for o = 0 to span - 1 do
        let s = (r * span) + o in
        let j = ref t.index.(slot_at t keys.(r) o) in
        while !j >= 0 do
          let f = t.facts.(!j) and cur = into.(s) in
          if cur == Fact.absent || Int64.compare cur.Fact.seq f.Fact.seq < 0 then into.(s) <- f;
          j := t.older.(!j)
        done
      done
    done;
    if runs > 0 && span > 0 then find_run_patches t ~keys ~span ~into t.patches

  (* A point lookup is a run of one. *)
  let latest_fact t key =
    let into = [| Fact.absent |] in
    find_run t ~keys:[| key |] ~span:1 ~into;
    if into.(0) == Fact.absent then None else Some into.(0)

  let find t key = resolve_fact t (latest_fact t key)

  (* The memtable (when it holds anything) above every patch. *)
  let runs t =
    if t.memtable_count = 0 then t.patches else Patch.of_array (memtable_facts t) :: t.patches

  (* Each key's newest fact, in key order, from one merge; tombstoned and
     elided ones read as absent. *)
  let iter_live t f =
    Patch.iter_newest (runs t) ~keep:(fun _ -> true) (fun fact ->
        if not (Fact.is_tombstone fact || elided t fact) then f fact)

  (* The latest fact of each key in [lo, hi], from the whole memtable and
     only the facts inside the fence of each overlapping patch; then the
     live ones, in key order. *)
  let range t ~lo ~hi =
    let best : Fact.t Tbl.t = Tbl.create 32 in
    let consider f =
      if K.compare f.Fact.key lo >= 0 && K.compare f.Fact.key hi <= 0 then
        match Tbl.find_opt best f.Fact.key with
        | Some b when Int64.compare b.Fact.seq f.Fact.seq >= 0 -> ()
        | _ -> Tbl.replace best f.Fact.key f
    in
    for i = 0 to t.memtable_count - 1 do
      consider t.facts.(i)
    done;
    List.iter
      (fun p -> if Patch.fence_overlaps p ~lo ~hi then Patch.iter_run p ~lo ~hi consider)
      t.patches;
    Tbl.fold
      (fun key f acc ->
        match live_value t f with Some value -> (key, value) :: acc | None -> acc)
      best []
    |> List.sort (fun (a, _) (b, _) -> K.compare a b)

  let merge_step t =
    match t.patches with
    | a :: b :: rest ->
      let merged = Patch.merge_keep a b ~keep:(not_elided t) in
      t.patches <- merged :: rest;
      true
    | _ -> false

  (* The memtable and every patch in one merge. *)
  let flatten t =
    let bottom = Patch.flatten (runs t) ~keep:(not_elided t) in
    clear_memtable t;
    t.patches <- (if Patch.is_empty bottom then [] else [ bottom ])

  let patch_count t = List.length t.patches

  let fact_count t =
    t.memtable_count + List.fold_left (fun acc p -> acc + Patch.count p) 0 t.patches

  let live_key_count t =
    let n = ref 0 in
    iter_live t (fun _ -> incr n);
    !n

  let elide_table t = t.elide_ranges
  let elide_range_count t = Ranges.range_count t.elide_ranges
  let max_seq t = t.max_seq
  let patches t = t.patches

  (* (probes attempted, skipped by fence) since creation. *)
  let probe_stats t = (t.stat_probes, t.stat_fence_skips)

  let replace_patches t ps =
    t.patches <- ps;
    List.iter
      (fun p -> match Patch.seq_range p with Some (_, hi) -> bump_seq t hi | None -> ())
      ps

  let restore_elides t ranges =
    match t.policy with
    | Tombstones -> invalid_arg "Pyramid.restore_elides: tombstone-policy table"
    | Elide _ ->
      t.elide_ranges <- Ranges.union t.elide_ranges ranges
end

module Patch = Patch
include (Make (Patch) : S with module Patch := Patch)
