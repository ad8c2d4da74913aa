(** A per-record k-mer posting index over opaque payload text — the
    engine half of the "genomic index structures" of paper section 6.5.

    Each indexed record contributes the k-mers of its canonical index
    text; a containment query looks up the pattern's first k-mer, unions
    in the always-candidate records, and verifies every candidate with
    the type's authoritative matcher. Postings are maintained on insert
    and delete, so results are exact at all times.

    {b Postings layout.} Each k-mer owns one byte buffer holding its
    strictly ascending set of records, each record a rid packed into an
    int by {!Heap.rid_to_int} (page above 10 slot bits for 8 KiB pages;
    the width follows [Page.page_size / Page.slot_bytes], so no page size
    can alias two rids), stored as LEB128 gaps after a small header.
    k-mers map to buffers through an open-addressed int table. The GC
    sees one block per k-mer, never one per posting: on 500 bp records
    about 4–7 bytes per (k-mer, record) posting, all included. Adding a
    rid above the k-mer's largest is an O(1) append; an out-of-order add
    or a remove rewrites only that k-mer's buffer. A k-mer repeated
    inside one record needs no dedup pass, since re-inserting a present
    rid is a no-op. *)

type t

val create : ?k:int -> Udt.search_support -> t
(** Default k = 8. Raises [Invalid_argument] when k is outside [2, 31]. *)

val cow_clone : t -> t
(** A new handle sharing this index's posting store copy-on-write. Reads
    on either handle keep using the shared segment; the first [add] or
    [remove] on a handle copies the store for that handle only, so
    neither side ever observes the other's writes. That copy takes the
    k-mer table's two arrays and the per-record maps (always-candidates,
    lengths): O(k-mers + records), not O(postings). Postings buffers
    stay shared until the copying handle first writes to a k-mer, which
    then copies that one buffer. The clone's record
    identities ([Heap.rid]s) are the original's — only valid when the
    cloned table's heap assigns the same rids (see
    [Table.share_genomic_indexes]). *)

val k : t -> int

val add : t -> Heap.rid -> bytes -> unit
(** Index one record's payload. *)

val remove : t -> Heap.rid -> bytes -> unit
(** Drop one record's postings (pass the payload it was indexed with). *)

val candidates : t -> pattern:string -> Heap.rid list option
(** Records that may contain [pattern]: posting hits for its first
    k-mer plus all always-candidates. [None] when the pattern is shorter
    than [k] or its first k-mer contains letters outside A/C/G/T — the
    caller must fall back to a scan. The result is unverified. *)

val seed_candidates : t -> pattern:string -> min_len:int -> Heap.rid list option
(** Similarity-seed candidates: the union of posting hits for {e every}
    k-mer of [pattern], the always-candidates, and every record whose
    index text is shorter than [min_len]. [None] when [pattern] is
    shorter than [k] or contains letters outside A/C/G/T. Unverified;
    complete only under the caller's similarity-threshold bound (see
    docs/OPTIMIZER.md). *)

val search :
  t -> pattern:string -> payload_of:(Heap.rid -> bytes option) -> Heap.rid list option
(** Verified containment matches; [None] when the index cannot serve the
    pattern. Pure-ACGT candidates are verified by exact search
    (Boyer–Moore–Horspool, or a cached suffix array for records of
    ≥ 4096 letters); ambiguous ones through the type's authoritative
    [matches]. Records whose payload can no longer be fetched are
    dropped. *)

val indexed_records : t -> int

val distinct_kmers : t -> int
(** k-mers with at least one record in their postings. *)

val mean_len : t -> float option
(** Mean length of the indexed texts, or [None] when the index is empty.
    Feeds the planner's k-mer candidate-fraction model. O(1): the store
    keeps a running sum. *)
