(* etl-refresh: the paper's ETL write path. Three sources on three
   Figure-2 cells are bootstrapped into the warehouse, then refreshed
   round after round from seeded 2 % update streams while a biologist
   queries the warehouse between rounds. *)

open Common
module Stats = Perfbench_stats.Stats
module Db = Genalg_storage.Database
module Exec = Genalg_sqlx.Exec
module Rng = Genalg_synth.Rng
module Recordgen = Genalg_synth.Recordgen
module Entry = Genalg_formats.Entry
module Source = Genalg_etl.Source
module Pipeline = Genalg_etl.Pipeline
module Monitor = Genalg_etl.Monitor
module Integrator = Genalg_etl.Integrator
module Loader = Genalg_etl.Loader
module Par = Genalg_par.Par

(* (name, accession prefix, Figure-2 cell, size) *)
let cells =
  [
    ("flat", "F", Source.Logged, Source.Flat_file, 400);
    ("rel", "R", Source.Queryable, Source.Relational, 400);
    ("ace", "A", Source.Non_queryable, Source.Hierarchical, 200);
  ]

let reads_per_round = 4
let seq_length = 600
let actor = "biologist"

let initial_entries ~seed =
  let rng = Gen.rng ~seed 40 in
  List.map
    (fun (name, prefix, _, _, size) ->
      (name, Recordgen.repository rng ~size ~seq_length ~prefix ()))
    cells

let sources_of contents =
  List.map
    (fun (name, _, cap, repr, _) ->
      Source.create ~name cap repr (List.assoc name contents))
    cells

let payload_bytes contents =
  List.fold_left
    (fun a (_, es) -> List.fold_left (fun a e -> a + Gen.entry_bytes e) a es)
    0 contents

(* One round of source-side updates. Fresh accessions are renamed to
   <prefix>N<counter>, unique across all sources, as real repository
   accessions are. *)
let update_source rng ~counter src prefix =
  let current = Source.entries src in
  let _, updates = Recordgen.update_stream rng current ~fraction:0.02 () in
  let renames = Hashtbl.create 8 in
  let rename (e : Entry.t) =
    match Hashtbl.find_opt renames e.Entry.accession with
    | Some a -> { e with Entry.accession = a }
    | None -> e
  in
  let updates =
    List.map
      (function
        | Recordgen.Insert e ->
            incr counter;
            let a = Printf.sprintf "%sN%06d" prefix !counter in
            Hashtbl.replace renames e.Entry.accession a;
            Source.Insert { e with Entry.accession = a }
        | Recordgen.Delete acc ->
            Source.Delete (Option.value (Hashtbl.find_opt renames acc) ~default:acc)
        | Recordgen.Modify e -> Source.Modify (rename e))
      updates
  in
  Source.apply src updates

let count db table =
  match Exec.query db ~actor:Db.loader_actor (Printf.sprintf "SELECT count(*) FROM %s" table) with
  | Ok (Exec.Rows { rows = [ [| Genalg_storage.Dtype.Int n |] ]; _ }) -> n
  | _ -> -1

let rows_of (s : Loader.stats) = s.Loader.entries + s.genes + s.proteins + s.conflicts

let run cfg =
  if cfg.trace then Par.set_jobs 1;
  let seed = cfg.seed in
  let boot_s = ref [] in
  let setup () =
    let contents = initial_entries ~seed in
    let pl = ok_or_fail "Pipeline.create" (Pipeline.create ~sources:(sources_of contents) ()) in
    let _, dt = timed (fun () -> ok_or_fail "bootstrap" (Pipeline.bootstrap pl)) in
    boot_s := dt :: !boot_s;
    pl
  in
  let pl, setup_s = repeated_setup cfg ~setup ~teardown:ignore in
  let records = List.fold_left (fun a (_, _, _, _, n) -> a + n) 0 cells in
  let db = Pipeline.database pl in
  let rng = Gen.rng ~seed 41 in
  let counter = ref 0 in
  let round = ref 0 in
  let reports = ref [] in
  let samples = Hashtbl.create 4 in
  let point_reads = ref 0 in
  (* op i of each round: 0 = refresh, then [reads_per_round] reads *)
  let phase = ref 0 in
  (* source-side updates are the sources' own write path: untimed, and
     taken out of the window so throughput counts the program's time *)
  let prepare_s = ref 0. and prepare_cpu = ref 0. in
  let prepare () =
    if !phase = 0 then begin
      let c0 = cpu_s 0 in
      let (), dt =
        timed (fun () ->
            List.iter2
              (fun src (_, prefix, _, _, _) -> update_source rng ~counter src prefix)
              (Pipeline.sources pl) cells)
      in
      prepare_s := !prepare_s +. dt;
      prepare_cpu := !prepare_cpu +. (cpu_s 0 -. c0)
    end
  in
  let draw = Gen.deck rng [ (0, 1); (1, 1); (2, 1) ] in
  let read_sql () =
    let src = List.nth (Pipeline.sources pl) (Rng.int rng 3) in
    let es = Source.entries src in
    let acc = (List.nth es (Rng.int rng (List.length es))).Entry.accession in
    match draw () with
    | 0 ->
        ( "point_read",
          Printf.sprintf
            "SELECT accession, version, organism, length FROM sequences WHERE accession = '%s'"
            acc )
    | 1 -> ("point_read", Printf.sprintf "SELECT id, exon_count FROM genes WHERE accession = '%s'" acc)
    | _ ->
        ( "group_by",
          Printf.sprintf
            "SELECT organism, count(*), avg(length) FROM sequences WHERE length >= %d GROUP BY organism"
            (800 + Rng.int rng 400) )
  in
  let step ~traced =
    let span name f = if traced then Trace.span name f else f () in
    if !phase = 0 then begin
      phase := 1;
      incr round;
      let r = span "pipeline.refresh_report" (fun () -> Pipeline.refresh_report pl) in
      reports := r :: !reports;
      let ok =
        List.for_all
          (fun (_, st) -> match st with Pipeline.Polled _ -> true | _ -> false)
          r.Pipeline.statuses
      in
      (Refresh, ok, [])
    end
    else begin
      phase := (!phase + 1) mod (reads_per_round + 1);
      let template, sql = read_sql () in
      if template = "point_read" then incr point_reads;
      if List.length (Hashtbl.find_all samples template) < 15 then
        Hashtbl.add samples template sql;
      match span "exec.query" (fun () -> Exec.query db ~actor sql) with
      | Ok (Exec.Rows _) -> (Read, true, [])
      | _ -> (Read, false, [])
    end
  in
  let before = registry () in
  let alloc0 = Gc.allocated_bytes () in
  let cpu0 = cpu_s 0 in
  let t0 = now () in
  let ops = closed_loop ~prepare ~trace_run:cfg.trace ~t0 ~seconds:cfg.seconds step in
  let window_s = now () -. t0 -. !prepare_s in
  let cpu = cpu_s 0 -. cpu0 -. !prepare_cpu in
  let alloc = Gc.allocated_bytes () -. alloc0 in
  let after = registry () in
  let peak = peak_rss_mb 0 in
  let final = List.map (fun s -> (Source.name s, Source.entries s)) (Pipeline.sources pl) in
  ok_or_fail "save" (Db.save db "etl.db");
  let stored = file_size "etl.db" in
  (* output check: the refreshed warehouse holds what a fresh bootstrap
     of the final source contents holds *)
  Par.set_jobs 2;
  let fresh = ok_or_fail "Pipeline.create" (Pipeline.create ~sources:(sources_of final) ()) in
  ignore (ok_or_fail "bootstrap" (Pipeline.bootstrap fresh));
  let check_failures =
    List.filter_map
      (fun t ->
        let a = count db t and b = count (Pipeline.database fresh) t in
        if a = b && a >= 0 then None
        else Some (Printf.sprintf "%s: %d rows after refresh, %d after a fresh bootstrap" t a b))
      [ "sequences"; "genes"; "proteins"; "conflicts" ]
  in
  if check_failures <> [] then
    List.iter (fun op -> if op.kind = Refresh then op.ok <- false) ops;
  let deltas = List.fold_left (fun a r -> a + r.Pipeline.deltas) 0 !reports in
  let written = List.fold_left (fun a r -> a + rows_of r.Pipeline.stats) 0 !reports in
  let layers =
    if not cfg.trace then []
    else begin
      Par.set_jobs 1;
      let d = dcount before after in
      let note = "in-process registry, --jobs 1" in
      (* the bootstrap stages on the bootstrap input *)
      let all =
        List.concat_map (fun (name, es) -> List.map (fun e -> (name, e)) es) (initial_entries ~seed)
      in
      let _, find_s =
        timed (fun () -> Trace.span "integrator.find_duplicates" (fun () -> Integrator.find_duplicates all))
      in
      let merged, reconcile_s =
        timed (fun () -> Trace.span "integrator.reconcile" (fun () -> Integrator.reconcile all))
      in
      let scratch = Db.create () in
      ok_or_fail "Loader.init" (Loader.init scratch Genalg_core.Builtin.default);
      let _, load_s =
        timed (fun () -> Trace.span "loader.load_merged" (fun () -> Loader.load_merged scratch merged))
      in
      let poll t =
        let slug = Monitor.technique_slug t in
        layer ~note:(Printf.sprintf "%d polls; etl.poll.%s span" (dcount before after ("etl.poll." ^ slug)) slug)
          ("etl.poll_ms." ^ slug) "ms" (dmean_ms before after ("etl.poll." ^ slug))
      in
      let c =
        {
          Replay.before;
          after;
          alloc_bytes = alloc;
          clone_s = [];
          statements = List.length ops;
          rows_written = written;
        }
      in
      let timing =
        Replay.timing_pass db ~actor
          (List.map (fun t -> (t, Hashtbl.find_all samples t)) [ "point_read"; "group_by" ])
      in
      [
        layer ~note:(Printf.sprintf "%d records" (List.length all)) "etl.find_duplicates_s" "s" find_s;
        layer ~note:(Printf.sprintf "%d records" (List.length all)) "etl.reconcile_s" "s" reconcile_s;
        layer ~note:(Printf.sprintf "%d merged records" (List.length merged)) "etl.load_s" "s" load_s;
        poll Monitor.Log_inspection;
        poll Monitor.Snapshot_differential;
        poll Monitor.Tree_diff;
        layer_ratio ~note:"warehouse rows written / deltas applied" "etl.rows_written_per_delta"
          (Stats.ratio_i written deltas);
        layer_ratio ~note:"etl.diff_cost / refresh rounds" "etl.diff_cost_per_round"
          (Stats.ratio_i (d "etl.diff_cost") !round);
        layer_ratio ~note "cache.stmt.hit_ratio" (hit_ratio before after "stmt");
        layer_ratio ~note "cache.plan.hit_ratio" (hit_ratio before after "plan");
        layer_ratio ~note "cache.result.hit_ratio" (hit_ratio before after "result");
        layer_ratio ~note "par.inline_ratio" (Stats.ratio_i (d "par.ops_inline") (d "par.ops"));
        layer_ratio ~note "par.chunks_per_query" (Stats.ratio_i (d "par.chunks") (d "sqlx.queries"));
      ]
      @ Replay.storage_layers ~note ~ops_label:"client operation" ~ops:(List.length ops)
          ~point_reads:!point_reads c
      @ Replay.sqlx_layers ~note:"caches cleared" timing
    end
  in
  {
    setup_s;
    window_s;
    cpu_s = cpu;
    ops;
    check_failures;
    peak_rss_mb = peak;
    stored_bytes = stored;
    user_bytes = float_of_int (payload_bytes final);
    extra =
      [
        ("load_records_per_s", "1/s", float_of_int records /. Stats.median_list !boot_s);
        ("refresh_rounds", "count", float_of_int !round);
        ("source_updates_s", "s", !prepare_s);
      ];
    layers;
    notes = [];
  }
