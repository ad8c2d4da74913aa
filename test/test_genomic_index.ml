(* Tests for the genomic (substring) index integration — the section 6.5
   "user-defined index structures" mechanism: Text_index postings,
   Table-level maintenance, planner access selection, and SQL execution
   equivalence. *)

open Genalg_gdt
module D = Genalg_storage.Dtype
module Db = Genalg_storage.Database
module Table = Genalg_storage.Table
module Schema = Genalg_storage.Schema
module Udt = Genalg_storage.Udt
module Text_index = Genalg_storage.Text_index
module Exec = Genalg_sqlx.Exec
module Plan = Genalg_sqlx.Plan

let check = Alcotest.check
let tc = Alcotest.test_case

let dna_payload s = Sequence.to_bytes (Sequence.dna s)

let dna_support () =
  let registry = Udt.create () in
  let db = Db.create () in
  Genalg_adapter.Adapter.attach db Genalg_core.Builtin.default;
  ignore registry;
  (Option.get (Udt.find_type (Db.udts db) "dna")).Udt.search |> Option.get

let rid i = { Genalg_storage.Heap.page = i; slot = 0 }

(* ---- Text_index directly -------------------------------------------- *)

let test_text_index_basics () =
  let idx = Text_index.create ~k:4 (dna_support ()) in
  Text_index.add idx (rid 1) (dna_payload "AAACGTACGTAAA");
  Text_index.add idx (rid 2) (dna_payload "GGGGGGGGGGGG");
  Text_index.add idx (rid 3) (dna_payload "TTACGTTT");
  let payloads =
    [ (rid 1, dna_payload "AAACGTACGTAAA"); (rid 2, dna_payload "GGGGGGGGGGGG");
      (rid 3, dna_payload "TTACGTTT") ]
  in
  let payload_of r = List.assoc_opt r payloads in
  (match Text_index.search idx ~pattern:"ACGT" ~payload_of with
  | Some hits ->
      check (Alcotest.list Alcotest.int) "rows 1 and 3"
        [ 1; 3 ]
        (List.sort Int.compare (List.map (fun r -> r.Genalg_storage.Heap.page) hits))
  | None -> Alcotest.fail "index should serve a 4-letter pattern");
  (match Text_index.search idx ~pattern:"GGGG" ~payload_of with
  | Some [ r ] -> check Alcotest.int "row 2" 2 r.Genalg_storage.Heap.page
  | _ -> Alcotest.fail "GGGG should hit row 2");
  (* shorter than k: cannot serve *)
  check Alcotest.bool "short pattern unsupported" true
    (Text_index.search idx ~pattern:"AC" ~payload_of = None)

let test_text_index_remove () =
  let idx = Text_index.create ~k:4 (dna_support ()) in
  let p = dna_payload "ACGTACGT" in
  Text_index.add idx (rid 1) p;
  Text_index.remove idx (rid 1) p;
  match Text_index.search idx ~pattern:"ACGT" ~payload_of:(fun _ -> Some p) with
  | Some [] -> ()
  | _ -> Alcotest.fail "removed record still matches"

let test_text_index_ambiguous_rows () =
  (* a row with an N is an always-candidate: IUPAC matching stays exact *)
  let idx = Text_index.create ~k:4 (dna_support ()) in
  let amb = dna_payload "NNNNNNNN" in
  Text_index.add idx (rid 9) amb;
  let payload_of r = if r = rid 9 then Some amb else None in
  match Text_index.search idx ~pattern:"ACGT" ~payload_of with
  | Some [ r ] ->
      (* N matches any base, so the all-N row genuinely contains ACGT *)
      check Alcotest.int "ambiguous row matched" 9 r.Genalg_storage.Heap.page
  | other ->
      Alcotest.failf "expected the ambiguous row to match, got %s"
        (match other with None -> "None" | Some l -> string_of_int (List.length l))

(* ---- rid packing ------------------------------------------------------- *)

module Heap = Genalg_storage.Heap

let test_rid_packing () =
  let rids =
    List.concat_map
      (fun page -> List.map (fun slot -> { Heap.page; slot }) [ 0; 1; 511; 1022; 1023 ])
      [ 0; 1; 2; 1 lsl 21; (1 lsl 21) + 1; 1 lsl 40 ]
  in
  List.iter
    (fun r ->
      check Alcotest.bool "roundtrip" true (Heap.rid_of_int (Heap.rid_to_int r) = r);
      List.iter
        (fun r' ->
          check Alcotest.int "int order is (page, slot) order" (compare r r')
            (Int.compare (Heap.rid_to_int r) (Heap.rid_to_int r')))
        rids)
    rids;
  List.iter
    (fun r ->
      match Heap.rid_to_int r with
      | _ -> Alcotest.fail "out-of-range rid packed"
      | exception Invalid_argument _ -> ())
    [ { Heap.page = 0; slot = 1024 }; { Heap.page = -1; slot = 0 };
      { Heap.page = 0; slot = -1 }; { Heap.page = max_int; slot = 0 } ]

(* ---- model-based schedules ------------------------------------------- *)

module Q = QCheck2

(* The reference model: a handle's live records as (rid, payload) pairs,
   searched naively through the support's own functions. *)
type model = (Heap.rid * bytes) list

type op =
  | Add of int * Heap.rid * string
  | Remove of int * int
  | Clone of int

let pure s = String.for_all (function 'A' | 'C' | 'G' | 'T' -> true | _ -> false) s

let contains_sub text sub =
  let n = String.length text and m = String.length sub in
  let rec at i = i + m <= n && (String.sub text i m = sub || at (i + 1)) in
  at 0

let windows k s =
  List.init (max 0 (String.length s - k + 1)) (fun i -> String.sub s i k)
  |> List.filter pure

let sorted_rids l = List.sort_uniq compare l

let model_text support payload =
  match support.Udt.index_text payload with
  | `Always_candidate -> None
  | `Text t -> Some t

let model_always support (_, payload) =
  match model_text support payload with None -> true | Some t -> not (pure t)

let model_candidates support k (m : model) pattern =
  if String.length pattern < k || not (pure (String.sub pattern 0 k)) then None
  else
    let first = String.sub pattern 0 k in
    Some
      (List.filter
         (fun ((_, payload) as r) ->
           model_always support r
           ||
           match model_text support payload with
           | Some t -> contains_sub (String.uppercase_ascii t) first
           | None -> false)
         m
      |> List.map fst |> sorted_rids)

let model_seed support k (m : model) pattern min_len =
  if String.length pattern < k || not (pure pattern) then None
  else
    let ws = windows k pattern in
    Some
      (List.filter
         (fun ((_, payload) as r) ->
           model_always support r
           ||
           match model_text support payload with
           | Some t ->
               String.length t < min_len
               || List.exists (contains_sub (String.uppercase_ascii t)) ws
           | None -> false)
         m
      |> List.map fst |> sorted_rids)

let model_search support k m pattern =
  Option.map
    (fun _ ->
      List.filter (fun (_, payload) -> support.Udt.matches payload ~pattern) m
      |> List.map fst |> sorted_rids)
    (model_candidates support k m pattern)

let model_kmers support k m =
  List.concat_map
    (fun (_, payload) ->
      match model_text support payload with
      | Some t -> windows k (String.uppercase_ascii t)
      | None -> [])
    m
  |> List.sort_uniq String.compare |> List.length

let model_mean_len support m =
  let lens = List.filter_map (fun (_, p) -> Option.map String.length (model_text support p)) m in
  if lens = [] then None
  else Some (float_of_int (List.fold_left ( + ) 0 lens) /. float_of_int (List.length lens))

let agrees support k patterns (idx, m) =
  let payload_of r = List.assoc_opt r m in
  Text_index.indexed_records idx = List.length m
  && Text_index.distinct_kmers idx = model_kmers support k m
  && Text_index.mean_len idx = model_mean_len support m
  && List.for_all
       (fun (p, min_len) ->
         Text_index.candidates idx ~pattern:p = model_candidates support k m p
         && Text_index.seed_candidates idx ~pattern:p ~min_len = model_seed support k m p min_len
         && Text_index.search idx ~pattern:p ~payload_of = model_search support k m p)
       patterns

(* Run [ops] over handles born by [cow_clone]; every handle must agree
   with its own model after every step, so a write on either side of a
   clone that leaked to the other would show. *)
let run_schedule support ~encode (k, ops, patterns) =
  let handles = ref [| (Text_index.create ~k support, ([] : model)) |] in
  let step op =
    let hs = !handles in
    let pick h = h mod Array.length hs in
    match op with
    | Add (h, rid, text) ->
        let idx, m = hs.(pick h) in
        if not (List.mem_assoc rid m) then begin
          let payload = encode text in
          Text_index.add idx rid payload;
          hs.(pick h) <- (idx, (rid, payload) :: m)
        end
    | Remove (h, i) -> (
        let idx, m = hs.(pick h) in
        match m with
        | [] -> ()
        | _ ->
            let rid, payload = List.nth m (i mod List.length m) in
            Text_index.remove idx rid payload;
            hs.(pick h) <- (idx, List.remove_assoc rid m))
    | Clone h ->
        if Array.length hs < 4 then begin
          let idx, m = hs.(pick h) in
          handles := Array.append hs [| (Text_index.cow_clone idx, m) |]
        end
  in
  List.for_all
    (fun op ->
      step op;
      Array.for_all (agrees support k patterns) !handles)
    ops

let schedule_gen ~letters =
  let open Q.Gen in
  let text = string_size ~gen:(oneofl letters) (int_range 0 24) in
  (* out-of-order rids: low pages, pages above 2^21, slot 1022 *)
  let rid =
    map2
      (fun page slot -> { Heap.page; slot })
      (oneofl [ 0; 1; 3; 1 lsl 21; (1 lsl 21) + 2; (1 lsl 30) + 7 ])
      (oneofl [ 0; 1; 2; 700; 1021; 1022 ])
  in
  let op =
    frequency
      [
        (5, map3 (fun h r t -> Add (h, r, t)) (int_bound 3) rid text);
        (3, map2 (fun h i -> Remove (h, i)) (int_bound 3) (int_bound 50));
        (1, map (fun h -> Clone h) (int_bound 3));
      ]
  in
  let pattern = pair (string_size ~gen:(oneofl letters) (int_range 0 8)) (int_range 0 20) in
  triple (int_range 2 4) (list_size (int_range 1 40) op) (list_size (return 6) pattern)

let print_schedule (k, ops, _) =
  Printf.sprintf "k=%d %s" k
    (String.concat "; "
       (List.map
          (function
            | Add (h, r, t) -> Printf.sprintf "add h%d (%d,%d) %S" h r.Heap.page r.Heap.slot t
            | Remove (h, i) -> Printf.sprintf "remove h%d #%d" h i
            | Clone h -> Printf.sprintf "clone h%d" h)
          ops))

let test_model_dna =
  (* DNA payloads through the adapter's support: N makes a record an
     always-candidate *)
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:200 ~name:"random schedules match the model (dna)"
       ~print:print_schedule
       (schedule_gen ~letters:[ 'A'; 'C'; 'G'; 'T'; 'A'; 'C'; 'N' ])
       (run_schedule (dna_support ()) ~encode:dna_payload))

let test_model_raw_text =
  (* index text with letters outside A/C/G/T: the record keeps its exact
     k-mers and is an always-candidate too *)
  let support =
    {
      Udt.index_text = (fun p -> `Text (Bytes.to_string p));
      matches = (fun p ~pattern -> contains_sub (Bytes.to_string p) pattern);
    }
  in
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:200 ~name:"random schedules match the model (raw text)"
       ~print:print_schedule
       (schedule_gen ~letters:[ 'A'; 'C'; 'G'; 'T'; 'N' ])
       (run_schedule support ~encode:Bytes.of_string))

(* ---- Table-level ------------------------------------------------------- *)

let table_fixture () =
  let db = Db.create () in
  Genalg_adapter.Adapter.attach db Genalg_core.Builtin.default;
  let schema =
    Schema.make_exn
      [
        { Schema.name = "id"; dtype = D.TInt; nullable = false };
        { Schema.name = "seq"; dtype = D.TOpaque "dna"; nullable = false };
      ]
  in
  let table =
    Result.get_ok
      (Db.create_table db ~actor:Db.loader_actor ~space:Db.Public ~name:"t" schema)
  in
  (db, table)

let test_table_genomic_index () =
  let db, table = table_fixture () in
  let insert i s =
    Table.insert_exn table [| D.Int i; D.Opaque ("dna", dna_payload s) |]
  in
  ignore (insert 1 "AAAACGTACGTAAAA");
  ignore (insert 2 "GGGGGGGGGGGG");
  let r3 = insert 3 "CCATTGCCATACC" in
  check Alcotest.bool "create" true
    (Result.is_ok (Table.create_genomic_index table ~column:"seq" ~registry:(Db.udts db)));
  check Alcotest.bool "duplicate rejected" true
    (Result.is_error (Table.create_genomic_index table ~column:"seq" ~registry:(Db.udts db)));
  check Alcotest.bool "non-opaque rejected" true
    (Result.is_error (Table.create_genomic_index table ~column:"id" ~registry:(Db.udts db)));
  (match Table.genomic_search table ~column:"seq" ~pattern:"ATTGCCATA" with
  | `Hits [ r ] -> check Alcotest.bool "row 3" true (r = r3)
  | _ -> Alcotest.fail "backfilled search failed");
  (* maintenance: inserted rows become searchable, deleted rows vanish *)
  let r4 = insert 4 "TTATTGCCATATT" in
  (match Table.genomic_search table ~column:"seq" ~pattern:"ATTGCCATA" with
  | `Hits hits -> check Alcotest.int "two rows after insert" 2 (List.length hits)
  | _ -> Alcotest.fail "post-insert search failed");
  ignore (Table.delete table r4);
  ignore (Table.delete table r3);
  (match Table.genomic_search table ~column:"seq" ~pattern:"ATTGCCATA" with
  | `Hits [] -> ()
  | _ -> Alcotest.fail "deleted rows still matching");
  (* unsupported pattern: shorter than k *)
  match Table.genomic_search table ~column:"seq" ~pattern:"ACGT" with
  | `Unsupported_pattern -> ()
  | _ -> Alcotest.fail "short pattern should be unsupported"

(* ---- footprint --------------------------------------------------------- *)

(* Postings are packed rid gaps in per-k-mer byte buffers: a few bytes
   per (k-mer, record) pair, not a heap cell each. *)
let test_postings_footprint () =
  let _, table = table_fixture () in
  let rng = Genalg_synth.Rng.make 2000 in
  let seqs = List.init 2000 (fun _ -> Genalg_synth.Seqgen.dna_string rng 500) in
  let rows =
    List.mapi
      (fun i s ->
        let payload = dna_payload s in
        (Table.insert_exn table [| D.Int i; D.Opaque ("dna", payload) |], payload))
      seqs
  in
  let idx = Text_index.create (dna_support ()) in
  List.iter (fun (rid, payload) -> Text_index.add idx rid payload) rows;
  let postings =
    List.fold_left
      (fun acc s -> acc + List.length (List.sort_uniq String.compare (windows 8 s)))
      0 seqs
  in
  let bytes = Obj.reachable_words (Obj.repr idx) * 8 in
  let per_posting = float_of_int bytes /. float_of_int postings in
  if per_posting > 8. then
    Alcotest.failf "%.2f bytes per posting (%d bytes, %d postings)" per_posting bytes postings
  else Printf.printf "FOOT %.2f\n" per_posting

(* ---- SQL level ----------------------------------------------------------- *)

let sql_fixture () =
  let rng = Genalg_synth.Rng.make 4242 in
  let db = Db.create () in
  Genalg_adapter.Adapter.attach db Genalg_core.Builtin.default;
  let run sql =
    match Exec.query db ~actor:Db.loader_actor sql with
    | Ok o -> o
    | Error m -> Alcotest.failf "fixture %s: %s" sql m
  in
  ignore (run "CREATE TABLE frags (id int, seq dna)");
  for i = 1 to 300 do
    let s = Genalg_synth.Seqgen.dna_string rng 200 in
    let s = if i mod 10 = 0 then "ATTGCCATAGG" ^ s else s in
    ignore (run (Printf.sprintf "INSERT INTO frags VALUES (%d, dna('%s'))" i s))
  done;
  (db, run)

let sorted_ids rs =
  List.filter_map
    (fun r -> match r.(0) with D.Int i -> Some i | _ -> None)
    rs.Exec.rows
  |> List.sort Int.compare

let test_sql_genomic_index_equivalence () =
  let db, run = sql_fixture () in
  let q = "SELECT id FROM frags WHERE contains(seq, 'ATTGCCATAGG')" in
  let before =
    match Exec.query db ~actor:"u" q with
    | Ok (Exec.Rows rs) -> sorted_ids rs
    | _ -> Alcotest.fail "scan query failed"
  in
  check Alcotest.int "30 planted rows" 30 (List.length before);
  ignore (run "CREATE GENOMIC INDEX ON frags (seq)");
  let after =
    match Exec.query db ~actor:"u" q with
    | Ok (Exec.Rows rs) -> sorted_ids rs
    | _ -> Alcotest.fail "indexed query failed"
  in
  check (Alcotest.list Alcotest.int) "identical results" before after;
  (* short pattern falls back to scanning, still correct *)
  let short = "SELECT count(*) FROM frags WHERE contains(seq, 'ACG')" in
  match Exec.query db ~actor:"u" short with
  | Ok (Exec.Rows { rows = [ [| D.Int n |] ]; _ }) ->
      check Alcotest.bool "fallback counts most rows" true (n > 250)
  | _ -> Alcotest.fail "fallback query failed"

let test_sql_planner_picks_genomic_access () =
  let db, run = sql_fixture () in
  ignore (run "CREATE GENOMIC INDEX ON frags (seq)");
  let catalog =
    {
      Plan.has_index = (fun ~table:_ ~column:_ -> false);
      has_genomic_index =
        (fun ~table ~column ->
          match Db.resolve db ~actor:"u" table with
          | Some (_, t) -> Table.has_genomic_index t ~column
          | None -> false);
      column_exists = (fun ~table:_ ~column:_ -> true);
      equality_selectivity = (fun ~table:_ ~column:_ -> None);
      column_dtype = (fun ~table:_ ~column:_ -> None);
    }
  in
  let select =
    match Genalg_sqlx.Parser.parse "SELECT id FROM frags WHERE contains(seq, 'ATTGCCATAGG')" with
    | Ok (Genalg_sqlx.Ast.Select s) -> s
    | _ -> Alcotest.fail "parse"
  in
  let plan = Plan.make catalog select in
  match (List.hd plan.Plan.tables).Plan.access with
  | Plan.Genomic_contains { column; pattern } ->
      check Alcotest.string "column" "seq" column;
      check Alcotest.string "pattern" "ATTGCCATAGG" pattern;
      check Alcotest.int "conjunct consumed" 0
        (List.length (List.hd plan.Plan.tables).Plan.filters)
  | _ -> Alcotest.fail "expected genomic access path"

let test_sql_genomic_index_statement_roundtrip () =
  match Genalg_sqlx.Parser.parse "CREATE GENOMIC INDEX ON t (seq)" with
  | Ok stmt ->
      check Alcotest.string "printer" "CREATE GENOMIC INDEX ON t (seq)"
        (Genalg_sqlx.Ast.stmt_to_string stmt)
  | Error m -> Alcotest.fail m

let test_sql_genomic_index_maintenance () =
  let db, run = sql_fixture () in
  ignore (run "CREATE GENOMIC INDEX ON frags (seq)");
  ignore (run "INSERT INTO frags VALUES (9999, dna('TTTTATTGCCATAGGTTTT'))");
  (match Exec.query db ~actor:"u"
           "SELECT count(*) FROM frags WHERE contains(seq, 'ATTGCCATAGG')" with
  | Ok (Exec.Rows { rows = [ [| D.Int n |] ]; _ }) ->
      check Alcotest.int "31 after insert" 31 n
  | _ -> Alcotest.fail "count failed");
  ignore (run "DELETE FROM frags WHERE id = 9999");
  match Exec.query db ~actor:"u"
          "SELECT count(*) FROM frags WHERE contains(seq, 'ATTGCCATAGG')" with
  | Ok (Exec.Rows { rows = [ [| D.Int n |] ]; _ }) ->
      check Alcotest.int "30 after delete" 30 n
  | _ -> Alcotest.fail "count failed"

let suites =
  [
    ( "genomic_index.text_index",
      [
        tc "basics" `Quick test_text_index_basics;
        tc "remove" `Quick test_text_index_remove;
        tc "ambiguous rows" `Quick test_text_index_ambiguous_rows;
        tc "rid packing" `Quick test_rid_packing;
        test_model_dna;
        test_model_raw_text;
        tc "postings footprint" `Quick test_postings_footprint;
      ] );
    ( "genomic_index.table",
      [ tc "create/search/maintain" `Quick test_table_genomic_index ] );
    ( "genomic_index.sql",
      [
        tc "scan/index equivalence" `Quick test_sql_genomic_index_equivalence;
        tc "planner access" `Quick test_sql_planner_picks_genomic_access;
        tc "statement roundtrip" `Quick test_sql_genomic_index_statement_roundtrip;
        tc "maintenance" `Quick test_sql_genomic_index_maintenance;
      ] );
  ]
