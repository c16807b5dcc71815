(** Fixed-capacity LRU cache over int keys.

    Used for the inline-dedup recency window (paper §4.7: "inline
    deduplication only checks for duplicates of recently written data")
    and the controller's read cache (and the secondary's warmed copy of
    it), keyed by a cblock's segment and offset packed into one int.

    The entries live in a slab of [capacity] slots allocated at
    {!create}: parallel arrays of keys, values, recency links and hash
    chains, linked by slot index. Finding and promoting an entry rewrites
    only ints and returns the option the slot already holds, so a hit
    allocates nothing; {!add} allocates the stored option (and, when it
    evicts, the binding it hands back). *)

type 'v t

val create : capacity:int -> 'v t
(** [capacity] must not be negative; 0 gives a cache that holds
    nothing. *)

val find : 'v t -> int -> 'v option
(** Lookup; promotes the entry to most-recently-used on hit. *)

val add : 'v t -> int -> 'v -> (int * 'v) option
(** Insert or overwrite. Inserting a new key into a full cache evicts
    the least-recently-used entry and hands back its binding, so its
    owner can release what the entry held; otherwise [None]. A
    capacity-0 cache hands every new binding straight back. *)

val remove : 'v t -> int -> unit

val fold : (int -> 'v -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc
(** Fold over entries in most-recently-used-first order. No order
    depends on the key hash. *)
