(* The block index (paper §4.5): the one pyramid every I/O consults,
   from (medium, block) to the Blockref of the data. It is the shared
   pyramid implementation instantiated at typed keys and values: int
   pairs and Blockref records in memory, so the put and resolve paths
   never build a key string or parse a reference. The 16-byte key and
   the varint reference exist only on media, written and read by the
   Keys.Block and Blockref codecs when a fact is logged or a patch is
   serialised, and parsed back when recovery reads them. *)

module Fact = Purity_pyramid.Fact.Make (Keys.Block) (Blockref)
include Purity_pyramid.Pyramid.Make (Purity_pyramid.Patch.Make (Fact))
