module Varint = Purity_util.Varint
module Crc32c = Purity_util.Crc32c

include Patch_intf

module Make (F : Fact.S) = struct
  module Fact = F
  module K = F.Key

  (* A patch is an immutable sorted run of facts with its key range and
     sequence range (paper §4.8); the key range comes free from the sorted
     array's ends and fences whole patches off the lookup path. *)
  type t = {
    facts : F.t array; (* sorted by (key asc, seq desc), no (key,seq) dups *)
    seq_lo : int64; (* min seq over facts; max_int when empty *)
    seq_hi : int64; (* max seq over facts; min_int when empty *)
  }

  let same_key_seq (a : F.t) (b : F.t) = K.equal a.key b.key && Int64.equal a.seq b.seq

  (* [facts] must already be sorted and deduped. *)
  let make facts =
    let seq_lo = ref Int64.max_int and seq_hi = ref Int64.min_int in
    Array.iter
      (fun (f : F.t) ->
        if Int64.compare f.seq !seq_lo < 0 then seq_lo := f.seq;
        if Int64.compare f.seq !seq_hi > 0 then seq_hi := f.seq)
      facts;
    { facts; seq_lo = !seq_lo; seq_hi = !seq_hi }

  let empty = { facts = [||]; seq_lo = Int64.max_int; seq_hi = Int64.min_int }
  let count t = Array.length t.facts
  let is_empty t = Array.length t.facts = 0

  (* The first [n] slots of [a] as the patch's run, copying only when
     something was dropped. *)
  let of_prefix a n = make (if n = Array.length a then a else Array.sub a 0 n)

  (* Sorted by compare_key_seq: drop exact (key, seq) duplicates in place. *)
  let dedup_sorted a =
    let n = ref 0 in
    Array.iter
      (fun f ->
        if !n = 0 || not (same_key_seq a.(!n - 1) f) then begin
          a.(!n) <- f;
          incr n
        end)
      a;
    of_prefix a !n

  (* A merge sort: fewer comparisons than the heap sort [Array.sort]
     runs, for n/2 words of scratch. *)
  let of_array a =
    Array.stable_sort F.compare_key_seq a;
    dedup_sorted a

  let of_facts facts = of_array (Array.of_list facts)

  let seq_range t = if is_empty t then None else Some (t.seq_lo, t.seq_hi)

  (* Index of the first fact with key >= [key]. *)
  let lower_bound t key =
    let a = t.facts in
    let lo = ref 0 and hi = ref (Array.length a) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if K.compare (a.(mid)).F.key key < 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  (* Fence check: a cheap rejection before any binary search. *)
  let fence_overlaps t ~lo ~hi =
    let a = t.facts in
    let n = Array.length a in
    n > 0 && K.compare (a.(0)).F.key hi <= 0 && K.compare lo (a.(n - 1)).F.key <= 0

  let find t key =
    let a = t.facts in
    let i = ref (lower_bound t key) in
    let acc = ref [] in
    while !i < Array.length a && K.equal (a.(!i)).F.key key do
      acc := a.(!i) :: !acc;
      incr i
    done;
    List.rev !acc

  (* One lower_bound, then a sequential walk: [f] sees every fact with
     lo <= key <= hi in order. *)
  let iter_run t ~lo ~hi f =
    let a = t.facts in
    let n = Array.length a in
    let i = ref (lower_bound t lo) in
    while !i < n && K.compare (a.(!i)).F.key hi <= 0 do
      f a.(!i);
      incr i
    done

  (* Could a key of the runs [find_run] names fall inside this patch's
     key range? [fence_overlaps] over the runs' first and last keys,
     without building the last. *)
  let run_overlaps t ~keys ~span =
    let a = t.facts in
    let n = Array.length a in
    let last = keys.(Array.length keys - 1) in
    n > 0
    && K.compare keys.(0) (a.(n - 1)).F.key <= 0
    && (K.compare (a.(0)).F.key last <= 0
       ||
       let o = K.offset last (a.(0)).F.key in
       o >= 0 && o < span)

  (* One lower_bound, then one walk that merges the patch's facts with
     the ascending runs: the cursor [r] moves to the next run once a
     fact sorts past run [r]'s keys. *)
  let find_run t ~keys ~span ~into =
    let a = t.facts in
    let n = Array.length a and runs = Array.length keys in
    let i = ref (lower_bound t keys.(0)) and r = ref 0 in
    while !i < n && !r < runs do
      let f = a.(!i) in
      let o = K.offset keys.(!r) f.F.key in
      if o >= 0 && o < span then begin
        let s = (!r * span) + o in
        let cur = into.(s) in
        if cur == F.absent || Int64.compare cur.F.seq f.F.seq < 0 then into.(s) <- f;
        incr i
      end
      else if K.compare f.F.key keys.(!r) < 0 then incr i
      else incr r
    done

  (* Linear merge of two sorted runs into one array, dropping (key, seq)
     duplicates and the facts [keep] rejects. *)
  let merge_keep a b ~keep =
    let fa = a.facts and fb = b.facts in
    let na = Array.length fa and nb = Array.length fb in
    if na + nb = 0 then empty
    else begin
      let out = Array.make (na + nb) (if na > 0 then fa.(0) else fb.(0)) in
      let n = ref 0 in
      (* duplicates collapse before [keep] sees them, as in a merge
         followed by a filter *)
      let prev = ref out.(0) and seen = ref false in
      let push f =
        if not (!seen && same_key_seq !prev f) then begin
          seen := true;
          prev := f;
          if keep f then begin
            out.(!n) <- f;
            incr n
          end
        end
      in
      let i = ref 0 and j = ref 0 in
      while !i < na || !j < nb do
        if !j >= nb || (!i < na && F.compare_key_seq fa.(!i) fb.(!j) <= 0) then begin
          push fa.(!i);
          incr i
        end
        else begin
          push fb.(!j);
          incr j
        end
      done;
      of_prefix out !n
    end

  let merge a b = merge_keep a b ~keep:(fun _ -> true)

  (* One merge over every run at once, calling [f] on each key's newest
     fact that [keep] accepts, in key order. The next fact is the least
     head by (key asc, seq desc), ties to the shallowest run, so a (key,
     seq) repeat collapses to its shallowest copy before [keep] sees it,
     as in [merge_keep]. The runs are few (the last flatten's bottom plus
     the patches flushed since), so a scan of the heads beats a heap. *)
  let iter_newest ts ~keep f =
    let runs =
      Array.of_list (List.filter_map (fun t -> if is_empty t then None else Some t.facts) ts)
    in
    let nruns = Array.length runs in
    let heads = Array.make nruns 0 in
    let total = Array.fold_left (fun acc a -> acc + Array.length a) 0 runs in
    if total > 0 then begin
      let prev = ref runs.(0).(0) and seen = ref false and decided = ref false in
      for _ = 1 to total do
        let best = ref (-1) in
        for r = 0 to nruns - 1 do
          let h = heads.(r) in
          if h < Array.length runs.(r) then
            if !best < 0 || F.compare_key_seq runs.(r).(h) runs.(!best).(heads.(!best)) < 0
            then best := r
        done;
        let fact = runs.(!best).(heads.(!best)) in
        heads.(!best) <- heads.(!best) + 1;
        if not (!seen && same_key_seq !prev fact) then begin
          if not (!seen && K.equal !prev.F.key fact.F.key) then decided := false;
          seen := true;
          prev := fact;
          if (not !decided) && keep fact then begin
            decided := true;
            f fact
          end
        end
      done
    end

  let flatten ts ~keep =
    let total = List.fold_left (fun acc t -> acc + count t) 0 ts in
    let out = ref [||] and n = ref 0 in
    iter_newest ts ~keep (fun fact ->
        if not (F.is_tombstone fact) then begin
          if !n = 0 then out := Array.make total fact;
          !out.(!n) <- fact;
          incr n
        end);
    of_prefix !out !n

  let serialize t =
    let body = Buffer.create (64 * Array.length t.facts) in
    Varint.write body (Array.length t.facts);
    Array.iter (fun f -> F.encode body f) t.facts;
    let payload = Buffer.contents body in
    let out = Buffer.create (String.length payload + 8) in
    Varint.write out (String.length payload);
    let crc = Crc32c.digest_string payload in
    for shift = 0 to 3 do
      Buffer.add_char out
        (Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical crc (8 * shift)) 0xFFl)))
    done;
    Buffer.add_string out payload;
    Buffer.contents out

  (* The parse behind [deserialize]; raises [Invalid_argument] on the
     first malformed byte. *)
  let body buf =
    let payload_len, p = Varint.read buf ~pos:0 in
    (* subtracted, not added: a length near max_int must not wrap *)
    if payload_len > Bytes.length buf - p - 4 then invalid_arg "Patch.deserialize: truncated";
    let crc_stored =
      let b i = Int32.of_int (Bytes.get_uint8 buf (p + i)) in
      Int32.logor (b 0)
        (Int32.logor
           (Int32.shift_left (b 1) 8)
           (Int32.logor (Int32.shift_left (b 2) 16) (Int32.shift_left (b 3) 24)))
    in
    let payload_pos = p + 4 in
    if not (Int32.equal (Crc32c.update 0l buf ~pos:payload_pos ~len:payload_len) crc_stored) then
      invalid_arg "Patch.deserialize: CRC mismatch";
    let payload_end = payload_pos + payload_len in
    if payload_end <> Bytes.length buf then invalid_arg "Patch.deserialize: trailing bytes";
    let n, pos = Varint.read buf ~pos:payload_pos in
    if n > payload_len then invalid_arg "Patch.deserialize: fact count";
    let p = ref pos in
    let facts =
      Array.init n (fun _ ->
          let f, next = F.decode buf ~pos:!p in
          p := next;
          f)
    in
    if !p <> payload_end then invalid_arg "Patch.deserialize: payload length";
    (* a patch is written in layout order, so its bytes are the one
       encoding of its facts *)
    for i = 1 to n - 1 do
      if F.compare_key_seq facts.(i - 1) facts.(i) >= 0 then
        invalid_arg "Patch.deserialize: facts out of order"
    done;
    make facts

  let[@purity.lint.recovery_root] [@purity.lint.allow
       "unsafe: deserialize views the immutable patch blob"] deserialize s =
    match body (Bytes.unsafe_of_string s) with
    | t -> Some t
    | exception Invalid_argument _ -> None
end

module Fact = Fact
include (Make (Fact) : S with module Fact := Fact)
