module Obs = Genalg_obs.Obs
module Search = Genalg_seqindex.Search
module Suffix_array = Genalg_seqindex.Suffix_array

let c_candidates = Obs.counter "storage.text_index.candidates"
let c_verified = Obs.counter "storage.text_index.verified"
let c_seed_candidates = Obs.counter "storage.text_index.seed_candidates"
let c_exact_verifies = Obs.counter "storage.text_index.exact_verifies"
let c_cow_clones = Obs.counter "storage.text_index.cow_clones"
let c_cow_breaks = Obs.counter "storage.text_index.cow_breaks"

(* ---- postings buffers --------------------------------------------------

   One k-mer's postings: the strictly ascending set of its records'
   packed rids ([Heap.rid_to_int]) in a byte buffer the GC neither
   scans nor allocates per posting. Layout: [0..3] bytes in use (int32),
   [4..11] the largest rid (int64, -1 while empty), [12..19] the id of
   the store that may write it in place (int64), then one LEB128 gap per
   rid, [rid - previous - 1] with the first previous taken as -1.
   Buffers never leave memory, so the header is native-endian (these
   accessors compile to unboxed loads and stores). *)

let header = 20
let used b = Int32.to_int (Bytes.get_int32_ne b 0)
let set_used b n = Bytes.set_int32_ne b 0 (Int32.of_int n)
let last b = Int64.to_int (Bytes.get_int64_ne b 4)
let set_last b r = Bytes.set_int64_ne b 4 (Int64.of_int r)
let owner b = Int64.to_int (Bytes.get_int64_ne b 12)
let set_owner b id = Bytes.set_int64_ne b 12 (Int64.of_int id)

let fresh_postings id =
  let b = Bytes.create 23 in
  set_used b header;
  set_last b (-1);
  set_owner b id;
  b

let rec leb_size v = if v < 0x80 then 1 else 1 + leb_size (v lsr 7)

(* write [v] at [pos]; returns the position after it *)
let rec put b pos v =
  if v < 0x80 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr v);
    pos + 1
  end
  else begin
    Bytes.unsafe_set b pos (Char.unsafe_chr (v land 0x7f lor 0x80));
    put b (pos + 1) (v lsr 7)
  end

(* Walk the rids in ascending order. [f pos stop prev rid] sees each rid
   with the byte range [pos, stop) of its gap and its predecessor (-1
   for the first); returning [false] stops the walk. *)
let walk b f =
  let n = used b in
  let pos = ref header and prev = ref (-1) and go = ref true in
  while !go && !pos < n do
    let p = !pos in
    let v = ref 0 and shift = ref 0 and q = ref p in
    while Char.code (Bytes.unsafe_get b !q) >= 0x80 do
      v := !v lor ((Char.code (Bytes.unsafe_get b !q) land 0x7f) lsl !shift);
      shift := !shift + 7;
      incr q
    done;
    v := !v lor (Char.code (Bytes.unsafe_get b !q) lsl !shift);
    let rid = !prev + !v + 1 in
    pos := !q + 1;
    go := f p !pos !prev rid;
    prev := rid
  done

(* [b]'s rids consed onto [acc] *)
let push_rids b acc =
  let acc = ref acc in
  walk b (fun _ _ _ rid ->
      acc := rid :: !acc;
      true);
  !acc

(* A larger buffer holding [b]'s bytes in use, with room for [need]:
   growth by half keeps slack low, and a length of 7 mod 8 fills the
   block's last word. *)
let grow b need =
  let nb = Bytes.create ((max need (Bytes.length b * 3 / 2) lor 7)) in
  Bytes.blit b 0 nb 0 (used b);
  nb

(* Replace bytes [pos, stop) with the codes of [gaps]. Returns the buffer
   now holding the postings: [b], or a larger copy. *)
let splice b ~pos ~stop gaps =
  let n = used b in
  let n' = n - (stop - pos) + List.fold_left (fun a g -> a + leb_size g) 0 gaps in
  let b = if n' <= Bytes.length b then b else grow b n' in
  Bytes.blit b stop b (n' - (n - stop)) (n - stop);
  ignore (List.fold_left (fun p g -> put b p g) pos gaps);
  set_used b n';
  b

(* add [rid]: O(1) past the end, otherwise a rewrite of this buffer *)
let insert_rid b rid =
  let l = last b in
  if rid > l then begin
    let n = used b and g = rid - l - 1 in
    let need = n + leb_size g in
    let b = if need <= Bytes.length b then b else grow b need in
    set_used b (put b n g);
    set_last b rid;
    b
  end
  else if rid = l then b
  else begin
    let out = ref b in
    walk b (fun pos stop prev cur ->
        if cur < rid then true
        else begin
          if cur > rid then out := splice b ~pos ~stop [ rid - prev - 1; cur - rid - 1 ];
          false
        end);
    !out
  end

(* drop [rid] if present; removal only shrinks, so [b] is rewritten in
   place *)
let remove_rid b rid =
  if rid <= last b then begin
    let found = ref (-1) and before = ref (-1) in
    walk b (fun pos stop prev cur ->
        if cur < rid then true
        else if cur = rid then begin
          found := pos;
          before := prev;
          true
        end
        else begin
          (* [cur] follows [rid]: one gap [before -> cur] replaces two *)
          if !found >= 0 then ignore (splice b ~pos:!found ~stop [ cur - !before - 1 ]);
          found := -1;
          false
        end);
    if !found >= 0 then begin
      (* [rid] was the largest *)
      set_used b !found;
      set_last b !before
    end
  end

(* ---- the store ---------------------------------------------------------- *)

(* The immutable-until-written segment shared between a clone and its
   original: postings, always-candidates and text lengths, all keyed by
   packed rid. A handle that doesn't own its store copies it before the
   first mutation. Postings sit in an open-addressed table: [keys.(i)]
   is a packed k-mer (-1 = free slot) and [lists.(i)] its buffer. A copy
   shares the buffers themselves; a store writes in place only buffers
   stamped with its [id] and copies any other before its first write. *)
type store = {
  id : int;
  mutable keys : int array;
  mutable lists : Bytes.t array;
  mutable kmers : int;                 (* occupied slots *)
  mutable nonempty : int;              (* k-mers with at least one rid *)
  always : (int, unit) Hashtbl.t;      (* ambiguous payloads *)
  lengths : (int, int) Hashtbl.t;      (* index-text lengths *)
  mutable len_sum : int;               (* sum of [lengths] *)
}

type t = {
  k : int;
  support : Udt.search_support;
  mutable store : store;
  mutable owns : bool;
      (* false while [store] may be shared with another handle *)
  sa_cache : (int, Suffix_array.t) Hashtbl.t;
      (* lazily-built suffix arrays over long record texts; per-handle
         (mutated on the read path) so it is never shared *)
  mutable count : int;
}

(* records at least this long get a cached suffix array instead of
   Horspool for exact verification *)
let sa_threshold = 4096
let sa_cache_cap = 64

let store_ids = Atomic.make 0

let new_store cap =
  { id = Atomic.fetch_and_add store_ids 1; keys = Array.make cap (-1);
    lists = Array.make cap Bytes.empty; kmers = 0; nonempty = 0;
    always = Hashtbl.create 16; lengths = Hashtbl.create 64; len_sum = 0 }

(* linear probing from a multiplicative hash of the k-mer; the table
   (a power of two) is never more than half full *)
let rec probe keys kmer i =
  let x = Array.unsafe_get keys i in
  if x = kmer || x < 0 then i else probe keys kmer ((i + 1) land (Array.length keys - 1))

let slot_of keys kmer =
  let h = kmer * 0x1E3779B97F4A7C15 in
  probe keys kmer ((h lxor (h lsr 31)) land (Array.length keys - 1))

let find s kmer =
  let i = slot_of s.keys kmer in
  if s.keys.(i) = kmer then i else -1

let grow_table s =
  let keys = s.keys and lists = s.lists in
  let cap = 2 * Array.length keys in
  s.keys <- Array.make cap (-1);
  s.lists <- Array.make cap Bytes.empty;
  Array.iteri
    (fun i kmer ->
      if kmer >= 0 then begin
        let j = slot_of s.keys kmer in
        s.keys.(j) <- kmer;
        s.lists.(j) <- lists.(i)
      end)
    keys

let slot_for_write s kmer =
  let i = slot_of s.keys kmer in
  if s.keys.(i) = kmer then i
  else begin
    if 2 * (s.kmers + 1) > Array.length s.keys then grow_table s;
    let i = slot_of s.keys kmer in
    s.keys.(i) <- kmer;
    s.lists.(i) <- fresh_postings s.id;
    s.kmers <- s.kmers + 1;
    i
  end

(* slot [i]'s buffer, copied first when another store may read it *)
let writable s i =
  let b = s.lists.(i) in
  if owner b = s.id then b
  else begin
    let b = Bytes.sub b 0 (used b) in
    set_owner b s.id;
    s.lists.(i) <- b;
    b
  end

let add_posting s kmer rid =
  let i = slot_for_write s kmer in
  let b = writable s i in
  if used b = header then s.nonempty <- s.nonempty + 1;
  s.lists.(i) <- insert_rid b rid

let remove_posting s kmer rid =
  match find s kmer with
  | -1 -> ()
  | i ->
      if used s.lists.(i) > header then begin
        let b = writable s i in
        remove_rid b rid;
        if used b = header then s.nonempty <- s.nonempty - 1
      end

let set_length s rid len =
  (match Hashtbl.find_opt s.lengths rid with
  | Some old -> s.len_sum <- s.len_sum - old
  | None -> ());
  Hashtbl.replace s.lengths rid len;
  s.len_sum <- s.len_sum + len

let drop_length s rid =
  match Hashtbl.find_opt s.lengths rid with
  | Some old ->
      s.len_sum <- s.len_sum - old;
      Hashtbl.remove s.lengths rid
  | None -> ()

let create ?(k = 8) support =
  if k < 2 || k > 31 then invalid_arg "Text_index.create: k must be in [2, 31]";
  { k; support; store = new_store 64; owns = true; sa_cache = Hashtbl.create 8;
    count = 0 }

(* Share the postings store with a new handle. Both handles drop
   ownership: whichever mutates first pays for its own private copy. *)
let cow_clone t =
  t.owns <- false;
  Obs.add c_cow_clones 1;
  { t with owns = false; sa_cache = Hashtbl.create 8 }

(* O(table slots + records): postings buffers stay shared until written *)
let copy_store s =
  { s with
    id = Atomic.fetch_and_add store_ids 1;
    keys = Array.copy s.keys;
    lists = Array.copy s.lists;
    always = Hashtbl.copy s.always;
    lengths = Hashtbl.copy s.lengths }

let ensure_private t =
  if not t.owns then begin
    t.store <- copy_store t.store;
    t.owns <- true;
    Obs.add c_cow_breaks 1
  end

let k t = t.k
let indexed_records t = t.count
let distinct_kmers t = t.store.nonempty

let mean_len t =
  let n = Hashtbl.length t.store.lengths in
  if n = 0 then None else Some (float_of_int t.store.len_sum /. float_of_int n)

let code = function
  | 'A' | 'a' -> 0
  | 'C' | 'c' -> 1
  | 'G' | 'g' -> 2
  | 'T' | 't' -> 3
  | _ -> -1

(* [f] on the packed k-mer of every window of [text] (repeats included);
   windows spanning a non-ACGT letter are skipped. True when [text] has
   such a letter. *)
let iter_kmers t text f =
  let mask = (1 lsl (2 * t.k)) - 1 in
  let hash = ref 0 and valid = ref 0 and saw_other = ref false in
  for i = 0 to String.length text - 1 do
    let c = code (String.unsafe_get text i) in
    if c < 0 then begin
      saw_other := true;
      valid := 0;
      hash := 0
    end
    else begin
      hash := ((!hash lsl 2) lor c) land mask;
      incr valid;
      if !valid >= t.k then f !hash
    end
  done;
  !saw_other

(* A k-mer repeated within one record needs no dedup table: the rid is
   already in that k-mer's set, and sets ignore re-insertion. *)
let add t rid payload =
  ensure_private t;
  t.count <- t.count + 1;
  let r = Heap.rid_to_int rid in
  Hashtbl.remove t.sa_cache r;
  let s = t.store in
  match t.support.Udt.index_text payload with
  | `Always_candidate -> Hashtbl.replace s.always r ()
  | `Text text ->
      set_length s r (String.length text);
      (* ambiguity letters make exact k-mers incomplete for this record *)
      if iter_kmers t text (fun kmer -> add_posting s kmer r) then
        Hashtbl.replace s.always r ()

let remove t rid payload =
  ensure_private t;
  t.count <- max 0 (t.count - 1);
  let r = Heap.rid_to_int rid in
  let s = t.store in
  Hashtbl.remove s.always r;
  drop_length s r;
  Hashtbl.remove t.sa_cache r;
  match t.support.Udt.index_text payload with
  | `Always_candidate -> ()
  | `Text text -> ignore (iter_kmers t text (fun kmer -> remove_posting s kmer r))

let pack_first t pattern =
  if String.length pattern < t.k then None
  else begin
    let rec loop i acc =
      if i = t.k then Some acc
      else
        let c = code pattern.[i] in
        if c < 0 then None else loop (i + 1) ((acc lsl 2) lor c)
    in
    loop 0 0
  end

(* packed rids -> rids in (page, slot) order, duplicates dropped *)
let to_rids l = List.sort_uniq Int.compare l |> List.map Heap.rid_of_int

let candidates t ~pattern =
  match pack_first t pattern with
  | None -> None
  | Some kmer ->
      let s = t.store in
      let always = Hashtbl.fold (fun r () acc -> r :: acc) s.always [] in
      let out =
        to_rids (match find s kmer with -1 -> always | i -> push_rids s.lists.(i) always)
      in
      Obs.add c_candidates (List.length out);
      Some out

let pure_acgt s =
  let ok = ref true in
  String.iter (fun ch -> if code ch < 0 then ok := false) s;
  !ok

let seed_candidates t ~pattern ~min_len =
  let n = String.length pattern in
  if n < t.k || not (pure_acgt pattern) then None
  else begin
    let s = t.store in
    let acc = ref [] in
    (* union the postings of EVERY pattern k-mer: a qualifying row is
       only guaranteed to share some k-mer with the pattern, not the
       first one *)
    ignore
      (iter_kmers t pattern (fun kmer ->
           match find s kmer with
           | -1 -> ()
           | i -> acc := push_rids s.lists.(i) !acc));
    Hashtbl.iter (fun r () -> acc := r :: !acc) s.always;
    (* rows shorter than [min_len] fall below the guaranteed shared-run
       length, so the k-mer filter cannot rule them out *)
    Hashtbl.iter (fun r len -> if len < min_len then acc := r :: !acc) s.lengths;
    let out = to_rids !acc in
    Obs.add c_seed_candidates (List.length out);
    Some out
  end

(* exact containment for pure-ACGT pattern and text: Horspool for short
   records, a cached suffix array for long ones (section 6.5's index
   structures, via lib/seqindex) *)
let exact_contains t r text ~pattern =
  Obs.add c_exact_verifies 1;
  if String.length text >= sa_threshold then begin
    let sa =
      match Hashtbl.find_opt t.sa_cache r with
      | Some sa -> sa
      | None ->
          let sa = Suffix_array.build text in
          if Hashtbl.length t.sa_cache < sa_cache_cap then Hashtbl.add t.sa_cache r sa;
          sa
    in
    Suffix_array.contains sa pattern
  end
  else Search.horspool_find ~pattern text <> None

let search t ~pattern ~payload_of =
  match candidates t ~pattern with
  | None -> None
  | Some rids ->
      let up = String.uppercase_ascii pattern in
      (* IUPAC matching degenerates to exact equality when both sides are
         concrete A/C/G/T, so non-always candidates (whose index text had
         no ambiguity letters) can be verified by exact search *)
      let exact_ok = up <> "" && pure_acgt up in
      let hits =
        List.filter
          (fun rid ->
            match payload_of rid with
            | None -> false
            | Some payload ->
                let r = Heap.rid_to_int rid in
                if exact_ok && not (Hashtbl.mem t.store.always r) then
                  match t.support.Udt.index_text payload with
                  | `Text text ->
                      exact_contains t r (String.uppercase_ascii text) ~pattern:up
                  | `Always_candidate -> t.support.Udt.matches payload ~pattern
                else t.support.Udt.matches payload ~pattern)
          rids
      in
      Obs.add c_verified (List.length hits);
      Some hits
