(** Synthetic data with controlled compressibility and duplication.

    The paper's data-reduction numbers come from workload structure:
    relational pages compress 3–8×, document stores ~10×, VDI images
    dedup up to 20× (§4.7, §5.2–5.3). These generators synthesise data
    with the same structure so the reduction experiments (E8) exercise
    the real compression/dedup machinery rather than asserting ratios.

    [random], [compressible] and [vm_image] fill one fresh buffer in
    place and return it as the payload string, without a copy; their
    draws allocate nothing (see {!Purity_util.Rng}), so a payload costs
    its own bytes and a few words. The text generators ([rdbms_page],
    [document]) still format through [Printf]. Every output is a pure
    function of the seed and the calls before it. *)

type t

val create : seed:int64 -> t

val random : t -> int -> string
(** Incompressible, never-duplicated bytes. *)

val compressible : t -> int -> target_ratio:float -> string
(** Bytes that the LZ codec compresses at roughly [target_ratio]:1
    (achieved by mixing random spans into a repetitive template). *)

val rdbms_page : t -> int -> string
(** A relational-database-page lookalike: structured header, fixed-width
    rows with low-cardinality columns, zero-padded free space. Compresses
    in the paper's 3–8x band; distinct pages rarely deduplicate. *)

val document : t -> int -> string
(** JSON-ish document-store data (repeated keys, enum values): ~10x
    compressible. *)

val os_image_block : t -> int -> string
(** A block drawn from a small shared pool of "operating system file"
    contents: different VMs writing OS files produce byte-identical
    blocks, the VDI dedup driver. *)

val vm_image : t -> blocks:int -> string
(** A whole VM image: mostly shared OS blocks with a sprinkle of
    machine-unique data. Two images from the same generator deduplicate
    heavily but not perfectly. *)
