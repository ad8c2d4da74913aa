open Genalg_gdt
open Genalg_formats
module Obs = Genalg_obs.Obs

type merged = {
  canonical : Entry.t;
  members : (string * Entry.t) list;
  sequence : Sequence.t Uncertain.t;
  consistent : bool;
}

let c_pairs = Obs.counter "etl.reconcile.pairs"
let c_defsim_skipped = Obs.counter "etl.reconcile.defsim_skipped"

(* ---- k-mer sets ------------------------------------------------------ *)

(* A k-mer set in one of two exact forms. Canonical 2-bit DNA keeps its
   distinct big-endian 2-bit k-mer codes, sorted, read straight from the
   packed payload. Everything else (IUPAC, RNA, protein, or [k] outside
   the packed range) keeps the set of k-mer strings. For packed DNA the
   codes and the strings are in bijection, so both forms have the same
   size and intersect alike. RNA is never packed here: its ACGU codes
   equal DNA's ACGT codes though the letters differ. *)
type kmers = Codes of int array | Strings of (string, unit) Hashtbl.t

let packed_dna k seq =
  k >= 1 && k <= 31
  && Sequence.encoding seq = Sequence.Packed2
  && Sequence.alphabet seq = Sequence.Dna

(* LSD radix sort of codes below [2^bits], one byte per pass. *)
let radix_sort ~bits a =
  let src = ref a and dst = ref (Array.make (Array.length a) 0) in
  let count = Array.make 257 0 in
  let shift = ref 0 in
  while !shift < bits do
    let digit x = (x lsr !shift) land 255 in
    Array.fill count 0 257 0;
    Array.iter (fun x -> count.(digit x + 1) <- count.(digit x + 1) + 1) !src;
    for d = 1 to 256 do
      count.(d) <- count.(d) + count.(d - 1)
    done;
    Array.iter
      (fun x ->
        !dst.(count.(digit x)) <- x;
        count.(digit x) <- count.(digit x) + 1)
      !src;
    let t = !src in
    src := !dst;
    dst := t;
    shift := !shift + 8
  done;
  !src

let kmer_set k seq =
  if packed_dna k seq then begin
    let codes = Array.make (max 0 (Sequence.length seq - k + 1)) 0 in
    ignore (Sequence.fold_kmers ~k (fun i _ code -> codes.(i) <- code; i + 1) 0 seq);
    let codes = radix_sort ~bits:(2 * k) codes in
    let distinct = ref 0 in
    Array.iter
      (fun c ->
        if !distinct = 0 || codes.(!distinct - 1) <> c then begin
          codes.(!distinct) <- c;
          incr distinct
        end)
      codes;
    Codes (Array.sub codes 0 !distinct)
  end
  else begin
    let s = Sequence.to_string seq in
    let n = String.length s in
    let set = Hashtbl.create (max 16 n) in
    for i = 0 to n - k do
      Hashtbl.replace set (String.sub s i k) ()
    done;
    Strings set
  end

let size = function Codes a -> Array.length a | Strings h -> Hashtbl.length h

(* [Some code] for a k-mer string over A/C/G/T only: the one string a
   code set can contain. *)
let code_of_string s =
  let rec go i acc =
    if i = String.length s then Some acc
    else
      match s.[i] with
      | 'A' -> go (i + 1) (acc lsl 2)
      | 'C' -> go (i + 1) ((acc lsl 2) lor 1)
      | 'G' -> go (i + 1) ((acc lsl 2) lor 2)
      | 'T' -> go (i + 1) ((acc lsl 2) lor 3)
      | _ -> None
  in
  go 0 0

let mem_sorted a x =
  let rec go lo hi =
    lo < hi
    &&
    let mid = (lo + hi) / 2 in
    if a.(mid) = x then true else if a.(mid) < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

let intersection a b =
  match a, b with
  | Codes x, Codes y ->
      let rec merge i j acc =
        if i = Array.length x || j = Array.length y then acc
        else if x.(i) = y.(j) then merge (i + 1) (j + 1) (acc + 1)
        else if x.(i) < y.(j) then merge (i + 1) j acc
        else merge i (j + 1) acc
      in
      merge 0 0 0
  | Codes codes, Strings h | Strings h, Codes codes ->
      Hashtbl.fold
        (fun key () acc ->
          match code_of_string key with
          | Some c when mem_sorted codes c -> acc + 1
          | _ -> acc)
        h 0
  | Strings x, Strings y ->
      let small, large = if Hashtbl.length x <= Hashtbl.length y then (x, y) else (y, x) in
      Hashtbl.fold (fun key () acc -> if Hashtbl.mem large key then acc + 1 else acc) small 0

let jaccard_of ~inter na nb =
  let union = na + nb - inter in
  if union = 0 then 1. else float_of_int inter /. float_of_int union

let jaccard a b = jaccard_of ~inter:(intersection a b) (size a) (size b)

let kmer_similarity ?(k = 8) a b =
  if Sequence.length a < k || Sequence.length b < k then
    (if Sequence.equal a b then 1. else 0.)
  else jaccard (kmer_set k a) (kmer_set k b)

let default_k = 8

(* ---- scoring --------------------------------------------------------- *)

(* Same organism and lengths within a 0.7 ratio; any other pair scores 0. *)
let comparable (a : Entry.t) (b : Entry.t) =
  a.Entry.organism = b.Entry.organism
  &&
  let la = Sequence.length a.Entry.sequence and lb = Sequence.length b.Entry.sequence in
  la > 0 && lb > 0 && float_of_int (min la lb) /. float_of_int (max la lb) >= 0.7

let def_similarity (a : Entry.t) (b : Entry.t) =
  Genalg_align.Distance.similarity a.Entry.definition b.Entry.definition

let combine seq_sim def_sim = (0.8 *. seq_sim) +. (0.2 *. def_sim)

let pair_score a b =
  if not (comparable a b) then 0.
  else
    combine (kmer_similarity a.Entry.sequence b.Entry.sequence) (def_similarity a b)

(* Blocking: only entries of the same organism whose 200 bp length bands
   are at most two apart are scored. (Bucketing by (organism, band) and
   probing the adjacent bands on both sides pairs exactly these.) *)
let band_width = 200

(* CSR inverted index over the code sets, built into the caller's
   [offsets] (4^k + 1 cells, reused across calls): the postings of code
   [c] are [postings.(offsets.(c)) .. postings.(offsets.(c + 1) - 1)],
   set positions ascending. String sets are not indexed. *)
let inverted_index offsets sets =
  Array.fill offsets 0 (Array.length offsets) 0;
  Array.iter
    (function
      | Codes a -> Array.iter (fun c -> offsets.(c + 1) <- offsets.(c + 1) + 1) a
      | Strings _ -> ())
    sets;
  for c = 1 to Array.length offsets - 1 do
    offsets.(c) <- offsets.(c) + offsets.(c - 1)
  done;
  let postings = Array.make offsets.(Array.length offsets - 1) 0 in
  (* fill with offsets.(c) as the cursor, then shift it back to the start *)
  Array.iteri
    (fun p -> function
      | Codes a ->
          Array.iter
            (fun c ->
              postings.(offsets.(c)) <- p;
              offsets.(c) <- offsets.(c) + 1)
            a
      | Strings _ -> ())
    sets;
  for c = Array.length offsets - 1 downto 1 do
    offsets.(c) <- offsets.(c - 1)
  done;
  offsets.(0) <- 0;
  postings

(* [f q] for every set position [q > p] sharing a code with set [p], once
   per shared code. *)
let iter_later_postings offsets postings codes p f =
  Array.iter
    (fun c ->
      let r = ref (offsets.(c + 1) - 1) in
      while !r >= offsets.(c) && postings.(!r) > p do
        f postings.(!r);
        decr r
      done)
    codes

let find_duplicates ?(threshold = 0.6) sourced =
  let arr = Array.of_list sourced in
  let sets = Array.map (fun (_, (e : Entry.t)) -> kmer_set default_k e.Entry.sequence) arr in
  (* each organism's entry ids, ascending: pairs never cross organisms *)
  let groups = Hashtbl.create 16 in
  for i = Array.length arr - 1 downto 0 do
    let organism = (snd arr.(i)).Entry.organism in
    let later = Option.value (Hashtbl.find_opt groups organism) ~default:[] in
    Hashtbl.replace groups organism (i :: later)
  done;
  let offsets = Array.make ((1 lsl (2 * default_k)) + 1) 0 in
  let pairs = ref 0 and skipped = ref 0 in
  let results = ref [] in
  let score_group ids =
    let band = Array.map (fun i -> Sequence.length (snd arr.(i)).Entry.sequence / band_width) ids in
    let group_sets = Array.map (fun i -> sets.(i)) ids in
    let postings = inverted_index offsets group_sets in
    (* counts.(q) = |set p ∩ set q| for q > p while position p is probed *)
    let counts = Array.make (Array.length ids) 0 in
    Array.iteri
      (fun p i ->
        let probe f =
          match group_sets.(p) with
          | Codes a -> iter_later_postings offsets postings a p f
          | Strings _ -> ()
        in
        probe (fun q -> counts.(q) <- counts.(q) + 1);
        let src_i, e_i = arr.(i) in
        for q = p + 1 to Array.length ids - 1 do
          let j = ids.(q) in
          let src_j, e_j = arr.(j) in
          if src_i <> src_j && abs (band.(p) - band.(q)) <= 2 then begin
            incr pairs;
            let keep s = if s >= threshold then results := (i, j, s) :: !results in
            if not (comparable e_i e_j) then keep 0.
            else begin
              let seq_sim =
                match group_sets.(p), group_sets.(q) with
                | Codes a, Codes b ->
                    jaccard_of ~inter:counts.(q) (Array.length a) (Array.length b)
                | a, b -> jaccard a b
              in
              (* def_sim <= 1 and IEEE rounding is monotone, so the
                 score cannot reach the threshold: exact to skip *)
              if (0.8 *. seq_sim) +. 0.2 < threshold then incr skipped
              else keep (combine seq_sim (def_similarity e_i e_j))
            end
          end
        done;
        probe (fun q -> counts.(q) <- 0))
      ids
  in
  Hashtbl.iter
    (fun _ ids -> if List.compare_length_with ids 1 > 0 then score_group (Array.of_list ids))
    groups;
  Obs.add c_pairs !pairs;
  Obs.add c_defsim_skipped !skipped;
  (* best score first, ties in descending (i, j): the order this function
     has always returned *)
  List.sort
    (fun (i1, j1, s1) (i2, j2, s2) ->
      match Float.compare s2 s1 with 0 -> compare (i2, j2) (i1, j1) | c -> c)
    !results
  |> List.map (fun (i, j, s) -> (arr.(i), arr.(j), s))

(* ---- clustering (union-find) -------------------------------------- *)

let reconcile ?threshold sourced =
  let n = List.length sourced in
  let arr = Array.of_list sourced in
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else (parent.(i) <- find parent.(i); parent.(i)) in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(ri) <- rj
  in
  (* map (source, accession) to index for pair lookup *)
  let index_of = Hashtbl.create 64 in
  Array.iteri
    (fun i (src, (e : Entry.t)) -> Hashtbl.replace index_of (src, e.Entry.accession) i)
    arr;
  let pairs = find_duplicates ?threshold sourced in
  List.iter
    (fun ((src_a, (ea : Entry.t)), (src_b, (eb : Entry.t)), _) ->
      match
        ( Hashtbl.find_opt index_of (src_a, ea.Entry.accession),
          Hashtbl.find_opt index_of (src_b, eb.Entry.accession) )
      with
      | Some i, Some j -> union i j
      | _ -> ())
    pairs;
  let clusters = Hashtbl.create 64 in
  Array.iteri
    (fun i member ->
      let root = find i in
      let prev = Option.value (Hashtbl.find_opt clusters root) ~default:[] in
      Hashtbl.replace clusters root (member :: prev))
    arr;
  let merge_cluster members =
    let members = List.rev members in
    let canonical =
      List.fold_left
        (fun (best : string * Entry.t) (candidate : string * Entry.t) ->
          if
            String.length (snd candidate).Entry.definition
            > String.length (snd best).Entry.definition
          then candidate
          else best)
        (List.hd members) (List.tl members)
      |> snd
    in
    (* group members by exact sequence *)
    let variants : (Sequence.t * (string * Entry.t) list) list =
      List.fold_left
        (fun acc (src, (e : Entry.t)) ->
          let rec add = function
            | [] -> [ (e.Entry.sequence, [ (src, e) ]) ]
            | (seq, supporters) :: rest ->
                if Sequence.equal seq e.Entry.sequence then
                  (seq, (src, e) :: supporters) :: rest
                else (seq, supporters) :: add rest
          in
          add acc)
        [] members
    in
    let total = float_of_int (List.length members) in
    let alternatives =
      List.map
        (fun (seq, supporters) ->
          let src, (e : Entry.t) =
            match supporters with s :: _ -> s | [] -> assert false
          in
          {
            Uncertain.value = seq;
            confidence = float_of_int (List.length supporters) /. total;
            provenance =
              Some (Provenance.make ~version:e.Entry.version ~source:src
                      ~record_id:e.Entry.accession ());
          })
        variants
    in
    {
      canonical;
      members;
      sequence = Uncertain.of_alternatives alternatives;
      consistent = List.length variants = 1;
    }
  in
  Hashtbl.fold (fun _ members acc -> merge_cluster members :: acc) clusters []
  |> List.sort (fun a b ->
         String.compare a.canonical.Entry.accession b.canonical.Entry.accession)
