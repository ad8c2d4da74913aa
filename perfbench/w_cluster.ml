(* cluster-mixed: an in-process 4-shard cluster with replicas and a
   durable state directory, driven by one closed-loop client. The only
   workload that exercises scatter-gather, the coordinator mirror and
   the statement log. *)

open Common
module Stats = Perfbench_stats.Stats
module Cluster = Genalg_shard.Cluster
module Db = Genalg_storage.Database
module Exec = Genalg_sqlx.Exec
module Scatter = Genalg_sqlx.Scatter
module Parser = Genalg_sqlx.Parser
module Ast = Genalg_sqlx.Ast
module Rng = Genalg_synth.Rng
module Par = Genalg_par.Par

let rows = 16_000
let organisms = 48
let actor = "bench"
let dir = "cluster"

let attach db = Genalg_adapter.Adapter.attach db Genalg_core.Builtin.default

let org i = Printf.sprintf "org%02d" i

(* Set-up statements, regenerated from the seed whenever they are needed
   so the process under measurement never holds a copy. Each comes with
   the user payload it carries. *)
let setup_statements ~seed f =
  f "CREATE TABLE reads (organism string, accession string, len int, seq dna)" 0;
  f "CREATE TABLE organisms (organism string, kingdom string, gc_target float)" 0;
  f
    ("INSERT INTO organisms VALUES "
    ^ String.concat ", "
        (List.init organisms (fun i ->
             Printf.sprintf "('%s', 'k%d', %.2f)" (org i) (i mod 3)
               (0.3 +. (float_of_int i /. 100.)))))
    (organisms * (5 + 2 + 8));
  let rng = Gen.rng ~seed 30 in
  (* every organism and every length equally often, in seeded order, so
     the per-organism partitions do not change size with the seed *)
  let next_org = Gen.deck rng (List.init organisms (fun i -> (i, 1)))
  and next_len = Gen.deck rng (List.init 60 (fun i -> (60 + i, 1))) in
  let rec batch lo =
    if lo < rows then begin
      let hi = min rows (lo + 250) in
      let bytes = ref 0 in
      let values =
        List.init (hi - lo) (fun k ->
            let len = next_len () in
            bytes := !bytes + 5 + 7 + 8 + len;
            Printf.sprintf "('%s', 'R%06d', %d, dna('%s'))"
              (org (next_org ())) (lo + k) len (Genalg_synth.Seqgen.dna_string rng len))
      in
      f ("INSERT INTO reads VALUES " ^ String.concat ", " values) !bytes;
      batch hi
    end
  in
  batch 0

(* The mix: pruned reads, unpruned scatter aggregates, not-shardable
   joins (answered by the mirror) and single-row inserts. *)
type statement = Pruned | Scatter_agg | Join | Insert

(* Blocks of 30. Writes take serve-oltp's write share, 30 % (its 20 %
   autocommit inserts plus 10 % transactions that each insert one row),
   as 9 single-row inserts. Nothing in the repository weights the three
   read kinds against each other, so the other 21 are split equally.
   Half the pruned reads are aggregates and half top-k scans, as in the
   SHARD bench's pruned-read mix. *)
let mix = [ (Pruned, 7); (Scatter_agg, 7); (Join, 7); (Insert, 9) ]

let next_statement rng ~draw ~next_w =
  let len () = 60 + Rng.int rng 60 in
  match draw () with
  | Pruned ->
      let o = org (Rng.int rng organisms) and t = len () in
      if Rng.bool rng 0.5 then
        ( Read, "pruned",
          Printf.sprintf
            "SELECT count(*), avg(len), max(len) FROM reads WHERE organism = '%s' AND len >= %d"
            o t, 0 )
      else
        ( Read, "pruned",
          Printf.sprintf
            "SELECT accession, len FROM reads WHERE organism = '%s' AND len < %d ORDER BY \
             len, accession LIMIT 10"
            o t, 0 )
  | Scatter_agg ->
      ( Read, "scatter",
        Printf.sprintf
          "SELECT organism, count(*), avg(len), max(len) FROM reads WHERE len >= %d GROUP BY \
           organism"
          (len ()), 0 )
  | Join ->
      ( Read, "join",
        Printf.sprintf
          "SELECT r.accession, o.kingdom FROM reads r, organisms o WHERE r.organism = \
           o.organism AND r.organism = '%s' AND r.len = %d"
          (org (Rng.int rng organisms)) (len ()), 0 )
  | Insert ->
      let l = len () in
      let w = next_w () in
      ( Write, "insert",
        Printf.sprintf "INSERT INTO reads VALUES ('%s', 'W%06d', %d, dna('%s'))"
          (org (Rng.int rng organisms)) w l (Genalg_synth.Seqgen.dna_string rng l),
        5 + 7 + 8 + l )

let row_total db =
  List.fold_left (fun a (_, t) -> a + Genalg_storage.Table.row_count t) 0 (Db.tables db)

let run cfg =
  (* one domain: the traced run must count at --jobs 1 (lib/par workers
     lose Obs increments at jobs > 1), and untraced runs match it. On a
     2-vCPU host a second domain bought no speed here (the client shares
     the process) and made each stop-the-world collection wait for both
     vCPUs. *)
  Par.set_jobs 1;
  let user_bytes = ref 0 in
  let setup () =
    rm_rf dir;
    let cl = ok_or_fail "create_local" (Cluster.create_local ~attach ~replicas:true ~dir ~shards:4 ()) in
    user_bytes := 0;
    setup_statements ~seed:cfg.seed (fun sql bytes ->
        ignore (ok_or_fail "setup" (Cluster.query cl ~actor sql));
        user_bytes := !user_bytes + bytes);
    (* warm-up: one statement of each read kind *)
    let rng = Gen.rng ~seed:cfg.seed 31 in
    let draw = Gen.deck rng mix in
    let rec warm n =
      if n > 0 then begin
        let kind, _, sql, _ = next_statement rng ~draw ~next_w:(fun () -> 0) in
        if kind = Read then ignore (ok_or_fail sql (Cluster.query cl ~actor sql));
        warm (n - 1)
      end
    in
    warm 12;
    cl
  in
  let teardown cl = Cluster.close cl; rm_rf dir in
  let cl, setup_s = repeated_setup cfg ~setup ~teardown in
  let rng = Gen.rng ~seed:cfg.seed 32 in
  let draw = Gen.deck rng mix in
  let w = ref 0 in
  let stream = ref [] in  (* (sql, outcome) in order, for the oracle *)
  let acked = ref [] in
  let samples = Hashtbl.create 4 in
  let before = registry () and log0 = file_size (Filename.concat dir "statements.log") in
  let alloc0 = Gc.allocated_bytes () in
  let step ~traced =
    let kind, label, sql, bytes =
      next_statement rng ~draw ~next_w:(fun () -> incr w; !w)
    in
    if List.length (Hashtbl.find_all samples label) < 15 then Hashtbl.add samples label sql;
    let r =
      if traced then Trace.span "cluster.query" (fun () -> Cluster.query cl ~actor sql)
      else Cluster.query cl ~actor sql
    in
    let ok =
      match (kind, r) with
      | Read, Ok (Exec.Rows _) -> true
      | Write, Ok (Exec.Affected 1) ->
          acked := (Printf.sprintf "W%06d" !w, bytes) :: !acked;
          true
      | _ -> false
    in
    stream := (sql, r) :: !stream;
    (kind, ok, [])
  in
  let cpu0 = cpu_s 0 in
  let t0 = now () in
  let ops = closed_loop ~trace_run:cfg.trace ~t0 ~seconds:cfg.seconds step in
  let window_s = now () -. t0 in
  let cpu = cpu_s 0 -. cpu0 in
  let alloc = Gc.allocated_bytes () -. alloc0 in
  let after = registry () in
  let log_bytes = file_size (Filename.concat dir "statements.log") -. log0 in
  let peak = peak_rss_mb 0 in
  let stored = du dir in
  let writes = List.length (List.filter (fun o -> o.kind = Write) ops) in
  (* per-layer figures that need the live cluster *)
  let mirror_rows = row_total (Cluster.mirror cl) in
  let all_rows =
    mirror_rows
    + List.fold_left ( + ) 0
        (List.init (Cluster.shard_count cl) (fun i ->
             let n = function Some db -> row_total db | None -> 0 in
             n (Cluster.primary_db cl i) + n (Cluster.replica_db cl i)))
  in
  let shard_exec_ms =
    if not cfg.trace then []
    else
      List.concat_map
        (fun sql ->
          match Parser.parse sql with
          | Ok (Ast.Select sel) -> (
              let shard_sel =
                match
                  Scatter.decompose
                    ~star_columns:(fun () -> Error "no star")
                    ~has_index:(fun _ -> false) sel
                with
                | Scatter.Plain p -> Some p.Scatter.p_shard
                | Scatter.Grouped g -> Some g.Scatter.g_shard
                | Scatter.Not_shardable _ -> None
              in
              match shard_sel with
              | None -> []
              | Some s ->
                  List.filter_map
                    (fun i ->
                      match Cluster.primary_db cl i with
                      | None -> None
                      | Some db ->
                          Exec.clear_statement_caches ();
                          let _, dt =
                            timed (fun () ->
                                Trace.span "exec.run_select" (fun () ->
                                    Exec.run_select db ~actor s))
                          in
                          Some (dt *. 1e3))
                    (List.init (Cluster.shard_count cl) Fun.id))
          | _ -> [])
        (Hashtbl.find_all samples "pruned" @ Hashtbl.find_all samples "scatter")
  in
  let timing =
    if not cfg.trace then ([], [], [])
    else
      Replay.timing_pass (Cluster.mirror cl) ~actor
        (List.map (fun l -> (l, Hashtbl.find_all samples l)) [ "pruned"; "scatter"; "join" ])
  in
  (* durability: abandon the coordinator without close, reopen the state
     directory, and compare with the single-node engine *)
  let cl2, reopen_s = timed (fun () -> ok_or_fail "open_dir" (Cluster.open_dir ~attach ~dir ())) in
  let base = Db.create () in
  attach base;
  Par.set_jobs 2;
  setup_statements ~seed:cfg.seed (fun sql _ ->
      ignore (ok_or_fail "oracle setup" (Exec.query base ~actor sql)));
  let stream = List.rev !stream in
  let mismatches = ref [] in
  let stream_ops = List.combine stream ops in
  List.iter
    (fun ((sql, got), op) ->
      let want = Exec.query base ~actor sql in
      if want <> got then begin
        op.ok <- false;
        mismatches := ("answer differs from single-node engine: " ^ sql) :: !mismatches
      end)
    stream_ops;
  let all_sql = "SELECT organism, accession, len FROM reads ORDER BY accession" in
  let lost =
    match (Cluster.query cl2 ~actor all_sql, Exec.query base ~actor all_sql) with
    | Ok (Exec.Rows a), Ok (Exec.Rows b) when a = b -> []
    | Ok (Exec.Rows a), _ ->
        let present = Hashtbl.create 1024 in
        List.iter
          (fun row -> match row.(1) with Genalg_storage.Dtype.Str s -> Hashtbl.replace present s () | _ -> ())
          a.Exec.rows;
        let missing =
          List.filter_map
            (fun (acc, _) ->
              if Hashtbl.mem present acc then None
              else Some ("acknowledged insert lost after reopen: " ^ acc))
            !acked
        in
        if missing = [] then [ "reopened cluster differs from single-node engine" ] else missing
    | Error m, _ -> [ "reopened cluster cannot answer: " ^ m ]
    | _ -> [ "reopened cluster answered no rows" ]
  in
  Cluster.close cl2;
  rm_rf dir;
  fail_ops ops ~kinds:[ Write ] (List.length lost);
  let layers =
    if not cfg.trace then []
    else begin
      let d = dcount before after in
      let q = d "shard.queries" in
      let note = "in-process registry, --jobs 1" in
      let c =
        {
          Replay.before;
          after;
          alloc_bytes = alloc;
          clone_s = [];
          statements = List.length ops;
          rows_written = List.length !acked;
        }
      in
      [
        layer_ratio ~note "shard.fanout_per_query" (Stats.ratio_i (d "shard.scatter.fanout") q);
        layer_ratio ~note "shard.pruned_ratio" (Stats.ratio_i (d "shard.pruned") q);
        layer_ratio ~note "shard.fallback_ratio" (Stats.ratio_i (d "shard.fallbacks") q);
        layer_ratio ~note "shard.gathered_rows_per_query"
          (Stats.ratio_i (d "shard.gathered_rows") q);
        layer ~note "shard.gather_ms" "ms" (dmean_ms before after "shard.gather");
        layer ~note "shard.merge_ms" "ms" (dmean_ms before after "shard.merge");
        layer
          ~note:(Printf.sprintf "%d per-shard plans run on Cluster.primary_db" (List.length shard_exec_ms))
          "shard.exec_ms" "ms" (mean_or_zero shard_exec_ms);
        layer_ratio ~note:"rows in mirror + primaries + replicas / logical rows"
          "shard.copies_per_row" (Stats.ratio_i all_rows mirror_rows);
        layer ~note:"rows held by the coordinator mirror" "shard.coordinator_rows_resident"
          "rows" (float_of_int mirror_rows);
        layer_ratio ~note:"statement-log growth over the window / writes"
          "shard.log_bytes_per_write" (Stats.ratio log_bytes (float_of_int writes));
        layer_ratio ~note "cache.stmt.hit_ratio" (hit_ratio before after "stmt");
        layer_ratio ~note "cache.plan.hit_ratio" (hit_ratio before after "plan");
        layer_ratio ~note "cache.result.hit_ratio" (hit_ratio before after "result");
        layer_ratio ~note "par.inline_ratio" (Stats.ratio_i (d "par.ops_inline") (d "par.ops"));
        layer_ratio ~note "par.chunks_per_query" (Stats.ratio_i (d "par.chunks") (d "sqlx.queries"));
      ]
      @ Replay.storage_layers ~note ~ops_label:"client operation" ~ops:(List.length ops)
          ~point_reads:0 c
      @ Replay.sqlx_layers ~note:"caches cleared, on the mirror" timing
    end
  in
  {
    setup_s;
    window_s;
    cpu_s = cpu;
    ops;
    check_failures = List.rev !mismatches @ lost;
    peak_rss_mb = peak;
    stored_bytes = stored;
    user_bytes =
      float_of_int (!user_bytes + List.fold_left (fun a (_, b) -> a + b) 0 !acked);
    extra = [ ("cluster.reopen_s", "s", reopen_s) ];
    layers;
    notes = [];
  }
