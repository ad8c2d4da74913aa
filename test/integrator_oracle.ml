(* Reference oracle for Genalg_etl.Integrator's scoring: the original
   string-set implementation, kept only to check the packed inverted-index
   path against. Every k-mer is a [String.sub] key in a [Hashtbl]; every
   candidate pair intersects two such tables. *)

open Genalg_gdt
open Genalg_formats

let kmer_set k seq =
  let s = Sequence.to_string seq in
  let n = String.length s in
  let set = Hashtbl.create (max 16 n) in
  for i = 0 to n - k do
    Hashtbl.replace set (String.sub s i k) ()
  done;
  set

let jaccard sa sb =
  let small, large =
    if Hashtbl.length sa <= Hashtbl.length sb then (sa, sb) else (sb, sa)
  in
  let inter =
    Hashtbl.fold (fun key () acc -> if Hashtbl.mem large key then acc + 1 else acc) small 0
  in
  let union = Hashtbl.length sa + Hashtbl.length sb - inter in
  if union = 0 then 1. else float_of_int inter /. float_of_int union

let kmer_similarity ?(k = 8) a b =
  if Sequence.length a < k || Sequence.length b < k then
    (if Sequence.equal a b then 1. else 0.)
  else jaccard (kmer_set k a) (kmer_set k b)

let default_k = 8

let pair_score_with ?sets (a : Entry.t) (b : Entry.t) =
  if a.Entry.organism <> b.Entry.organism then 0.
  else begin
    let la = Sequence.length a.Entry.sequence and lb = Sequence.length b.Entry.sequence in
    let ratio =
      if la = 0 || lb = 0 then 0.
      else float_of_int (min la lb) /. float_of_int (max la lb)
    in
    if ratio < 0.7 then 0.
    else begin
      let seq_sim =
        match sets with
        | Some (sa, sb) -> jaccard sa sb
        | None -> kmer_similarity a.Entry.sequence b.Entry.sequence
      in
      let def_sim =
        Genalg_align.Distance.similarity a.Entry.definition b.Entry.definition
      in
      (0.8 *. seq_sim) +. (0.2 *. def_sim)
    end
  end

let pair_score a b = pair_score_with a b

let band_width = 200

let buckets_of (e : Entry.t) =
  let len = Sequence.length e.Entry.sequence in
  let band = len / band_width in
  List.map
    (fun b -> (e.Entry.organism, b))
    (List.sort_uniq compare [ band - 1; band; band + 1 ])

let find_duplicates ?(threshold = 0.6) sourced =
  let indexed = List.mapi (fun i (src, e) -> (i, src, e)) sourced in
  let table = Hashtbl.create 64 in
  List.iter
    (fun (i, _, e) ->
      List.iter
        (fun key ->
          let prev = Option.value (Hashtbl.find_opt table key) ~default:[] in
          Hashtbl.replace table key (i :: prev))
        (buckets_of e))
    indexed;
  let arr = Array.of_list indexed in
  let kmer_sets =
    Array.map (fun (_, _, (e : Entry.t)) -> kmer_set default_k e.Entry.sequence) arr
  in
  let seen = Hashtbl.create 64 in
  let results = ref [] in
  Array.iter
    (fun (i, src_i, (e_i : Entry.t)) ->
      let candidates =
        List.concat_map
          (fun key -> Option.value (Hashtbl.find_opt table key) ~default:[])
          (buckets_of e_i)
        |> List.sort_uniq Int.compare
      in
      List.iter
        (fun j ->
          if j > i && not (Hashtbl.mem seen (i, j)) then begin
            Hashtbl.add seen (i, j) ();
            let _, src_j, e_j = arr.(j) in
            if src_i <> src_j then begin
              let score =
                pair_score_with ~sets:(kmer_sets.(i), kmer_sets.(j)) e_i e_j
              in
              if score >= threshold then
                results := ((src_i, e_i), (src_j, e_j), score) :: !results
            end
          end)
        candidates)
    arr;
  List.sort
    (fun (_, _, s1) (_, _, s2) -> Float.compare s2 s1)
    !results
