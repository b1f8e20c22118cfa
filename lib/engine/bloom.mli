(** Blocked Bloom filter for sideways information passing.

    Built over build-side join keys and consulted before each probe: a
    negative answer is definitive (the key is not in the build table), so
    the hash lookup, and the probe row's trip to its partition, can be
    skipped. Positives may be false; the hash-table probe stays
    authoritative.

    A join builds one filter, sized from its actual build count and filled
    on the calling domain before the partitions are; nothing merges
    filters. A filter is a deterministic function of that count and the
    inserted hashes, so the bloom counters are the same at every
    [--jobs]. *)

type t

val create : int -> t
(** [create expected] sizes the filter for [expected] keys (~1 byte/key,
    ≈0.01% false positives at that load). [expected] may be 0. *)

val add : t -> int -> unit
(** Insert a precomputed [Value.hash]. *)

val mem : t -> int -> bool
(** May return a false positive; never a false negative for added hashes. *)

val fill_ratio : t -> float
(** Fraction of set bits — prune-rate diagnostics and saturation tests. *)
