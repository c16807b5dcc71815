(** Fixed-capacity LRU cache.

    Used for the inline-dedup recency window (paper §4.7: "inline
    deduplication only checks for duplicates of recently written data")
    and the controller's read cache (and the secondary's warmed copy of
    it). Each instance hashes and compares at its key
    type ({!Make}); the top level is the int-keyed one. *)

module type S = sig
  type key
  type 'v t

  val create : capacity:int -> 'v t
  (** [capacity] must be positive. *)

  val find : 'v t -> key -> 'v option
  (** Lookup; promotes the entry to most-recently-used on hit. *)

  val add : 'v t -> key -> 'v -> unit
  (** Insert or overwrite; evicts the least-recently-used entry when full. *)

  val remove : 'v t -> key -> unit

  val fold : (key -> 'v -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc
  (** Fold over entries in most-recently-used-first order. No order
      depends on the key hash. *)
end

module Make (H : Hashtbl.HashedType) : S with type key = H.t

include S with type key = int

module Ipair : S with type key = int * int
