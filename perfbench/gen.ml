(* Seeded inputs. The same seed gives the same warehouse and the same
   operation stream; the program only ever sees what is generated here. *)

module Rng = Genalg_synth.Rng
module Db = Genalg_storage.Database
module Entry = Genalg_formats.Entry

(* Independent streams derived from one seed. *)
let rng ~seed salt = Rng.make ((seed * 1_000_003) + (salt * 7919) + 17)

let accession i = Printf.sprintf "ACC%06d" i

let words =
  [| "chromosome"; "complete"; "cds"; "partial"; "strain"; "isolate"; "clone";
     "mitochondrial"; "plasmid"; "genomic"; "sequence"; "region"; "locus";
     "similar"; "to"; "protein"; "family"; "domain"; "containing"; "subunit" |]

(* Definition lines padded with seeded words to about [definition]
   characters, the length of a typical repository DEFINITION line. *)
let entries rng ~n ~seq_length ~definition =
  List.init n (fun i ->
      let e =
        Genalg_synth.Recordgen.entry rng ~seq_length ~feature_count:1
          ~accession:(accession i) ()
      in
      let b = Buffer.create (definition + 16) in
      Buffer.add_string b e.Entry.definition;
      while Buffer.length b < definition do
        Buffer.add_char b ' ';
        Buffer.add_string b (Rng.choose rng words)
      done;
      { e with Entry.definition = Buffer.contents b })

(* User payload of an entry: its text fields and bases, numbers as 8
   bytes. Genes and proteins the loader derives are the system's work,
   not user data. *)
let entry_bytes (e : Entry.t) =
  String.length e.Entry.accession + String.length e.Entry.organism
  + String.length e.Entry.definition
  + Genalg_gdt.Sequence.length e.Entry.sequence
  + 8

(* A served warehouse built directly through the loader, without the
   quadratic cross-source reconciliation of [Pipeline.bootstrap]: every
   entry is its own certain, consistent record. *)
let warehouse entries =
  let db = Db.create () in
  Common.ok_or_fail "Loader.init"
    (Genalg_etl.Loader.init db Genalg_core.Builtin.default);
  let merged =
    List.map
      (fun (e : Entry.t) ->
        {
          Genalg_etl.Integrator.canonical = e;
          members = [ ("gen", e) ];
          sequence = Genalg_gdt.Uncertain.certain e.Entry.sequence;
          consistent = true;
        })
      entries
  in
  ignore (Common.ok_or_fail "Loader.load_merged" (Genalg_etl.Loader.load_merged db merged));
  db

(* Zipf(s) over [n] ranks, mapped through a seeded permutation so hot
   keys are scattered over the key space. *)
type zipf = { cdf : float array; perm : int array }

let zipf rng ~n ~s =
  let w = Array.init n (fun i -> 1. /. Float.pow (float_of_int (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  let cdf = Array.map (fun x -> acc := !acc +. (x /. total); !acc) w in
  let perm = Array.init n Fun.id in
  Rng.shuffle rng perm;
  { cdf; perm }

let zipf_draw z rng =
  let u = Rng.float rng in
  let lo = ref 0 and hi = ref (Array.length z.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  z.perm.(!lo)

(* Exact-proportion operation mix: each block of the deck holds every
   label [count] times, shuffled, so a run's mix does not wander with
   the seed. *)
let deck rng counts =
  let cards = Array.of_list (List.concat_map (fun (l, n) -> List.init n (fun _ -> l)) counts) in
  let i = ref (Array.length cards) in
  fun () ->
    if !i >= Array.length cards then begin
      Rng.shuffle rng cards;
      i := 0
    end;
    let c = cards.(!i) in
    incr i;
    c
