(** Immutable facts: the only unit of persistent mutation in Purity.

    Paper §3.2: "Purity represents all persistent data as immutable facts
    (tuples). Deletions are represented as immutable retractions." Every
    fact carries a sequence number from the array-wide counter, so any set
    of facts has a well-defined most-recent state regardless of the order
    in which the facts are (re)discovered — insertion is idempotent and
    commutative, which is what makes recovery a set union (§4.3).

    A fact with [value = None] is a tombstone retraction; pyramids
    configured with elision never produce them (elide tables carry the
    retractions instead).

    Facts are typed by their table's key and value ({!Make}). In memory a
    key or value is whatever its type is; on media both are byte strings,
    and a table's {!CODEC}s are the one place the two forms convert. The
    top level of this module is the string-keyed, string-valued instance. *)

module type CODEC = Fact_intf.CODEC

module type KEY = Fact_intf.KEY
module type VALUE = Fact_intf.VALUE
module type S = Fact_intf.S

module Make (K : KEY) (V : VALUE) : S with type key = K.t and type value = V.t

include S with type key = string and type value = string
