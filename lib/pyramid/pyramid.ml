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

  type t = {
    name : string;
    policy : policy;
    flush_count : int;
    memtable : Fact.t list Tbl.t; (* key -> facts, newest first *)
    mutable memtable_count : int;
    mutable patches : Patch.t list; (* shallowest (newest) first *)
    mutable elide_ranges : Ranges.t; (* every elided id *)
    mutable max_seq : int64;
    (* fast-path accounting, read back through the telemetry registry *)
    mutable stat_probes : int; (* patch consults attempted *)
    mutable stat_fence_skips : int; (* rejected by key-range fence *)
    mutable stat_bloom_skips : int; (* rejected by bloom filter *)
  }

  let create ?(memtable_flush_count = 1024) ~policy ~name () =
    {
      name;
      policy;
      flush_count = memtable_flush_count;
      memtable = Tbl.create 64;
      memtable_count = 0;
      patches = [];
      elide_ranges = Ranges.empty;
      max_seq = 0L;
      stat_probes = 0;
      stat_fence_skips = 0;
      stat_bloom_skips = 0;
    }

  let name t = t.name
  let policy_is_elision t = match t.policy with Elide _ -> true | Tombstones -> false

  let bump_seq t seq = if Int64.compare seq t.max_seq > 0 then t.max_seq <- seq

  (* Elide ids are never reused, so filtering against the whole table is
     always safe. *)
  let elided t f =
    match t.policy with Tombstones -> false | Elide rule -> Ranges.mem t.elide_ranges (rule f)

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

  (* The memtable's facts in an exact-size array, in no particular order
     (each key's list holds no (key, seq) repeat). *)
  let memtable_facts t =
    let a = ref [||] and n = ref 0 in
    let add f =
      if !n = 0 then a := Array.make t.memtable_count f;
      !a.(!n) <- f;
      incr n
    in
    Tbl.iter (fun _ fs -> List.iter add fs) t.memtable;
    !a

  let flush t =
    if t.memtable_count > 0 then begin
      t.patches <- Patch.of_array (memtable_facts t) :: t.patches;
      Tbl.reset t.memtable;
      t.memtable_count <- 0;
      auto_compact t
    end

  let insert_fact t f =
    let prev = Option.value ~default:[] (Tbl.find_opt t.memtable f.Fact.key) in
    (* Idempotence at the earliest point: drop exact (key, seq) repeats. *)
    if not (List.exists (fun g -> Int64.equal g.Fact.seq f.Fact.seq) prev) then begin
      Tbl.replace t.memtable f.Fact.key (f :: prev);
      t.memtable_count <- t.memtable_count + 1;
      bump_seq t f.Fact.seq;
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

  (* Latest fact for a key across memtable and every patch. Patches may
     overlap in sequence ranges after recovery, so all sources are
     consulted and the global maximum wins. Patches whose key fence or
     bloom filter excludes the key are skipped without a search, and the
     per-patch probe allocates nothing. *)
  let[@purity.lint.hotpath] [@purity.lint.allow
                              "hotalloc: a lookup allocates a bounded \
                               handful of words — the memoised bloom \
                               hash (lazy cell), the fold closure, and \
                               the result option — per query, not per \
                               fact scanned; the patch probes themselves \
                               are allocation-free"] latest_fact t key =
    let best = ref None in
    let consider f =
      match !best with
      | Some b when Int64.compare b.Fact.seq f.Fact.seq >= 0 -> ()
      | _ -> best := Some f
    in
    (match Tbl.find_opt t.memtable key with
    | Some fs -> List.iter consider fs
    | None -> ());
    let hashes = lazy (K.hash_pair key) in
    List.iter
      (fun p ->
        t.stat_probes <- t.stat_probes + 1;
        (* seq fence first (one int64 compare): a patch whose newest fact
           is already dominated by the best so far cannot contribute *)
        let dominated =
          match !best with
          | Some b -> Int64.compare b.Fact.seq (Patch.max_seq p) >= 0
          | None -> false
        in
        if dominated || not (Patch.fence_admits p key) then
          t.stat_fence_skips <- t.stat_fence_skips + 1
        else if not (Patch.bloom_admits_hashed p hashes) then
          t.stat_bloom_skips <- t.stat_bloom_skips + 1
        else
          match Patch.find_latest p key with
          | Some f -> consider f
          | None -> ())
      t.patches;
    !best

  (* The pre-filter lookup, kept as the reference implementation: the
     equivalence properties in test_pyramid.ml and the before/after rows
     of bench/exp_metadata_hotpath.ml compare against it. *)
  let latest_fact_naive t key =
    let best = ref None in
    let consider f =
      match !best with
      | Some b when Int64.compare b.Fact.seq f.Fact.seq >= 0 -> ()
      | _ -> best := Some f
    in
    (match Tbl.find_opt t.memtable key with
    | Some fs -> List.iter consider fs
    | None -> ());
    List.iter (fun p -> List.iter consider (Patch.find p key)) t.patches;
    !best

  (* A fact's live value: tombstoned and elided facts read as absent. *)
  let live_value t f = if Fact.is_tombstone f || elided t f then None else f.Fact.value

  let resolve_fact t = function None -> None | Some f -> live_value t f

  let find t key = resolve_fact t (latest_fact t key)
  let find_naive t key = resolve_fact t (latest_fact_naive t key)

  let find_ignoring_retractions t key =
    match latest_fact t key with
    | Some f when not (Fact.is_tombstone f) -> f.Fact.value
    | Some _ | None -> None

  (* Batched lookup for [n] consecutive keys: one lower_bound then a
     sequential walk per patch, instead of n independent binary searches.
     [key_of i] names slot i's key (keys must be ascending in i); [index]
     inverts it, mapping a stored key back to its slot (return anything
     out of [0, n) for keys that belong to no slot). Returns the latest
     fact per slot; retractions are NOT applied — feed each slot through
     [resolve_fact]. *)
  let find_run t ~n ~key_of ~index =
    let best = Array.make n None in
    let consider slot f =
      if slot >= 0 && slot < n then
        match best.(slot) with
        | Some b when Int64.compare b.Fact.seq f.Fact.seq >= 0 -> ()
        | _ -> best.(slot) <- Some f
    in
    for i = 0 to n - 1 do
      match Tbl.find_opt t.memtable (key_of i) with
      | Some fs -> List.iter (consider i) fs
      | None -> ()
    done;
    if n > 0 then begin
      let lo = key_of 0 and hi = key_of (n - 1) in
      List.iter
        (fun p ->
          t.stat_probes <- t.stat_probes + 1;
          if not (Patch.fence_overlaps p ~lo ~hi) then
            t.stat_fence_skips <- t.stat_fence_skips + 1
          else Patch.iter_run p ~lo ~hi (fun f -> consider (index f.Fact.key) f))
        t.patches
    end;
    best

  (* The memtable (when it holds anything) above every patch. *)
  let runs t =
    if t.memtable_count = 0 then t.patches else Patch.of_array (memtable_facts t) :: t.patches

  (* Each key's newest fact, in key order, from one merge; tombstoned and
     elided ones read as absent. *)
  let iter_live t f =
    Patch.iter_newest (runs t) ~keep:(fun _ -> true) (fun fact ->
        match live_value t fact with Some value -> f ~key:fact.Fact.key ~value | None -> ())

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
    Tbl.iter (fun _ fs -> List.iter consider fs) t.memtable;
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
    Tbl.reset t.memtable;
    t.memtable_count <- 0;
    t.patches <- (if Patch.is_empty bottom then [] else [ bottom ])

  let patch_count t = List.length t.patches

  let fact_count t =
    t.memtable_count + List.fold_left (fun acc p -> acc + Patch.count p) 0 t.patches

  let live_key_count t =
    let n = ref 0 in
    iter_live t (fun ~key:_ ~value:_ -> incr n);
    !n

  let memtable_size t = t.memtable_count
  let elide_table t = t.elide_ranges
  let elide_range_count t = Ranges.range_count t.elide_ranges
  let max_seq t = t.max_seq
  let patches t = t.patches

  (* (probes attempted, skipped by fence, skipped by bloom) since creation. *)
  let probe_stats t = (t.stat_probes, t.stat_fence_skips, t.stat_bloom_skips)

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
