(** Pyramids: Purity's log-structured merge trees (paper §4.8, §4.10).

    A pyramid indexes one relation. Insertions go to a mutable memtable
    (an arrival-order array of facts, each key's facts chained
    newest-first, and an open-addressing index from a key to its newest
    fact, all kept across flushes, so a steady-state insert allocates
    nothing); {!flush} freezes it into a {!Patch.t}; {!merge_step} combines patches
    with contiguous sequence ranges; {!flatten} compacts everything to a
    single bottom patch. Merge and flatten are idempotent and always safe,
    mirroring the paper's lock-free maintenance claim (re-running either
    never changes the result).

    Deletion policy is chosen at creation time:

    - {e Elision} (Purity's novel mechanism): the pyramid carries an elide
      table of dense integer ids plus a rule mapping each fact to its id.
      Inserting an id (or range) into the elide table atomically retracts
      every matching fact, present and — because ids are never reused —
      harmless against future ones. Readers filter against the table;
      merges drop elided facts immediately, reclaiming space without
      waiting for a retraction to sink through the levels.

    - {e Tombstones} (the baseline the paper compares against): deletes
      insert per-key tombstone facts that shadow older values and are only
      discarded when a flatten reaches the bottom level.

    One implementation serves every table: {!Make} instantiates it at a
    table's key and value types ({!Fact.Make}), and the top level of this
    module is the string-keyed instance. *)

module type S = Pyramid_intf.S

module Make (P : Patch.S) : S with module Patch = P

include S with module Patch = Patch
