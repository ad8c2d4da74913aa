(** Heap files: an append-friendly sequence of slotted pages addressed by
    record ids. *)

type t

type rid = { page : int; slot : int }
(** A record's physical address. *)

val rid_to_int : rid -> int
(** Pack a rid into one immediate int: the page above the low
    [log2 (Page.page_size / Page.slot_bytes)] bits (10 for 8 KiB pages),
    the slot in them. No two rids share an int, and int order is the
    [(page, slot)] order of [compare]. Raises [Invalid_argument] for a
    negative page or slot, a slot no page can hold, or a page too large
    to shift into an int. *)

val rid_of_int : int -> rid
(** Inverse of {!rid_to_int}. *)

val create : unit -> t

val insert : t -> bytes -> rid
(** Appends into the last page with room (first-fit over the tail), or a
    new page. *)

val get : t -> rid -> bytes option
val delete : t -> rid -> bool

val update : t -> rid -> bytes -> rid
(** In-place when the page can hold it; otherwise delete + reinsert,
    returning the (possibly new) rid. *)

val iter : (rid -> bytes -> unit) -> t -> unit
(** Live records in physical order. *)

val fold : (rid -> bytes -> 'a -> 'a) -> t -> 'a -> 'a

val record_count : t -> int
val page_count : t -> int

val flush : t -> unit
(** Write every dirty buffered page back to its serialized image. *)

val drop_page_cache : t -> unit
(** {!flush}, then empty the heap's buffer pool so the next reads start
    cold ([cache.bufferpool.misses] ticks again). For benchmarks. *)

val to_bytes : t -> bytes
val of_bytes : bytes -> (t, string) result
