(* The repository benchmark. One run = one workload, one seed, one timed
   window; see README.md for the workloads and every metric.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   Run from the repository root (the genalg executable is looked up in
   _build/default/bin). Human-readable figures go first; the last line of
   standard output is the JSON result. *)

open Common
module Stats = Perfbench_stats.Stats

let workloads = [ "serve-oltp"; "serve-analytics"; "cluster-mixed"; "etl-refresh" ]

(* Per-layer metrics, reported by every workload (traced runs); a layer
   a workload does not exercise reads 0 and says so. *)
let per_layer =
  [
    ("serve.stmt_ms", "ms"); ("serve.outside_stmt_ms", "ms");
    ("serve.codec_us", "us"); ("serve.reply_bytes_per_read", "bytes");
    ("serve.commits_per_flush", "ratio"); ("serve.txn.conflict_ratio", "ratio");
    ("storage.clone_ms", "ms"); ("storage.clone_share_of_txn_p50", "ratio");
    ("storage.heap.inserts_per_row_written", "ratio");
    ("storage.btree.inserts_per_row_written", "ratio");
    ("storage.btree.lookups_per_point_read", "ratio");
    ("storage.page.reads_per_op", "ratio");
    ("storage.table.rows_scanned_per_row_out", "ratio");
    ("storage.wal.flush_ms", "ms"); ("storage.wal.bytes_per_commit", "ratio");
    ("storage.wal.replay_s", "s");
    ("cache.stmt.hit_ratio", "ratio"); ("cache.plan.hit_ratio", "ratio");
    ("cache.result.hit_ratio", "ratio"); ("cache.bufferpool.hit_ratio", "ratio");
    ("cache.bufferpool.evictions_per_op", "ratio");
    ("sqlx.parse_us", "us"); ("sqlx.plan_us", "us");
    ("sqlx.exec_ms.point_read", "ms"); ("sqlx.exec_ms.gc_filter", "ms");
    ("sqlx.exec_ms.length_filter", "ms"); ("sqlx.exec_ms.contains_filter", "ms");
    ("sqlx.exec_ms.group_by", "ms"); ("sqlx.exec_ms.join", "ms");
    ("sqlx.vec.kernel_row_share", "ratio");
    ("sqlx.alloc_bytes_per_row_scanned", "ratio");
    ("sqlx.opt.index_path_share", "ratio");
    ("par.inline_ratio", "ratio"); ("par.chunks_per_query", "ratio");
    ("shard.fanout_per_query", "ratio"); ("shard.pruned_ratio", "ratio");
    ("shard.exec_ms", "ms"); ("shard.fallback_ratio", "ratio");
    ("shard.gathered_rows_per_query", "ratio"); ("shard.gather_ms", "ms");
    ("shard.merge_ms", "ms"); ("shard.copies_per_row", "ratio");
    ("shard.coordinator_rows_resident", "rows");
    ("shard.log_bytes_per_write", "ratio");
    ("etl.find_duplicates_s", "s"); ("etl.reconcile_s", "s"); ("etl.load_s", "s");
    ("etl.poll_ms.log_inspection", "ms");
    ("etl.poll_ms.snapshot_differential", "ms"); ("etl.poll_ms.tree_diff", "ms");
    ("etl.rows_written_per_delta", "ratio"); ("etl.diff_cost_per_round", "ratio");
    ("obs.trace_overhead_ratio", "ratio");
  ]

let usage () =
  prerr_endline "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
}

let parse_args () =
  let a = ref { workload = ""; seed = 1; seconds = 10.; trace = false } in
  let rec go = function
    | "--workload" :: w :: rest -> a := { !a with workload = w }; go rest
    | "--seed" :: n :: rest -> (
        match int_of_string_opt n with
        | Some s -> a := { !a with seed = s }; go rest
        | None -> usage ())
    | "--seconds" :: n :: rest -> (
        match float_of_string_opt n with
        | Some s when s > 0. -> a := { !a with seconds = s }; go rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> a := { !a with trace = t = "1" }; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if not (List.mem !a.workload workloads) then usage ();
  !a

(* ---- end-to-end figures ---------------------------------------------- *)

let lat_ms ops pred =
  Stats.sorted_copy
    (Array.of_list
       (List.filter_map (fun o -> if o.ok && pred o then Some (o.lat *. 1e3) else None) ops))

let print_latency label sorted =
  let n = Array.length sorted in
  if n > 0 then
    Printf.printf "  %-9s n=%-6d p50=%.3f ms  %s\n" label n
      (Option.get (Stats.median sorted))
      (match Stats.highest_supported sorted with
      | Some (l, v) -> Printf.sprintf "%s=%.3f ms (highest with >= %d beyond)" l v Stats.min_beyond
      | None -> "(too few samples for a tail percentile)")

(* The gated end-to-end metrics (name, unit, value), in BENCHMARK.json's
   order, reported by every workload in untraced runs. Throughput,
   latency and CPU time per operation are printed but not gated: they
   follow the shared host's speed and did not repeat within the bound
   (README.md, Measured spread). *)
let e2e_metrics (o : outcome) =
  [
    ("setup_s", "s", Stats.median_list o.setup_s);
    ("peak_rss_mb", "MiB", o.peak_rss_mb);
    ("stored_bytes_per_user_byte", "ratio", o.stored_bytes /. o.user_bytes);
  ]

(* Every end-to-end figure README.md lists that this run defines, gated
   or not: a percentile the sample does not support is left out. *)
let named_figures (o : outcome) =
  let pct name pred p =
    Option.map (fun v -> (name, "ms", v)) (Stats.percentile (lat_ms o.ops pred) p)
  in
  let kind k op = op.kind = k in
  let attempted = List.length o.ops in
  let failed = List.length (List.filter (fun op -> not op.ok) o.ops) in
  let ok_ops = List.length (List.filter (fun op -> op.ok) o.ops) in
  e2e_metrics o
  @ [ ("throughput_ops_s", "1/s", float_of_int ok_ops /. o.window_s);
      ("cpu_ms_per_op", "ms", o.cpu_s *. 1e3 /. float_of_int (max 1 ok_ops));
      ("cpu_util", "ratio", o.cpu_s /. o.window_s) ]
  @ List.filter_map Fun.id
      [
        pct "p50_ms" (fun _ -> true) 0.5;
        pct "p90_ms" (fun _ -> true) Stats.window_tail;
        pct "p99_ms" (fun _ -> true) 0.99;
        pct "read_p50_ms" (kind Read) 0.5;
        pct "read_p90_ms" (kind Read) 0.9;
        pct "write_p50_ms" (kind Write) 0.5;
        pct "write_p90_ms" (kind Write) 0.9;
        pct "txn_p50_ms" (kind Txn) 0.5;
        pct "txn_p90_ms" (kind Txn) 0.9;
        pct "refresh_p50_ms" (kind Refresh) 0.5;
        pct "refresh_p90_ms" (kind Refresh) 0.9;
      ]
  @ [ ("failed_ratio", "ratio", (Stats.ratio_i failed attempted).Stats.value) ]
  @ o.extra

let print_report args (o : outcome) =
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%b\n" args.workload args.seed
    args.seconds args.trace;
  Printf.printf "  setup timings (s): %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") o.setup_s));
  let attempted = List.length o.ops in
  let failed = List.length (List.filter (fun op -> not op.ok) o.ops) in
  Printf.printf "  window %.3f s, %d operations attempted, %d failed (failed_ratio %s)\n"
    o.window_s attempted failed
    (Stats.ratio_to_string (Stats.ratio_i failed attempted));
  print_latency "all" (lat_ms o.ops (fun _ -> true));
  List.iter
    (fun k ->
      print_latency (kind_name k) (lat_ms o.ops (fun op -> op.kind = k)))
    [ Read; Write; Txn; Refresh ];
  (* steadiness watch: first-quarter vs last-quarter median *)
  List.iter
    (fun (label, pred) ->
      let series =
        Array.of_list
          (List.filter_map (fun op -> if op.ok && pred op then Some (op.lat *. 1e3) else None) o.ops)
      in
      match Stats.quarter_drift series with
      | Some (a, b) ->
          Printf.printf "  drift %-8s first-quarter p50=%.3f ms  last-quarter p50=%.3f ms  (x%.2f)\n"
            label a b (if a > 0. then b /. a else nan)
      | None -> ())
    [
      ("all", fun _ -> true);
      ("read", fun op -> op.kind = Read);
      ("write", fun op -> op.kind = Write);
      ("txn", fun op -> op.kind = Txn);
      ("refresh", fun op -> op.kind = Refresh);
    ];
  Printf.printf "end-to-end (the first %d gated in BENCHMARK.json; the rest printed only):\n"
    (List.length (e2e_metrics o));
  List.iter (fun (n, u, v) -> Printf.printf "  %-28s %14.6g %s\n" n v u) (named_figures o);
  List.iter (fun n -> Printf.printf "  note: %s\n" n) o.notes;
  List.iteri
    (fun i m -> if i < 10 then Printf.printf "  CHECK FAILED: %s\n" m)
    o.check_failures;
  if List.length o.check_failures > 10 then
    Printf.printf "  ... %d check failures in all\n" (List.length o.check_failures)

let run_workload args ~genalg =
  let cfg =
    { genalg; seed = args.seed; seconds = args.seconds; trace = args.trace;
      (* set-up is repeated and its median reported. serve-oltp's set-up
         is short and noisy, and about half of cluster-mixed's is waiting
         on the statement log's fsyncs, whose latency varies with the
         disk: both get more repetitions *)
      reps =
        (match args.workload with "serve-oltp" | "cluster-mixed" -> 5 | _ -> 3) }
  in
  match args.workload with
  | "serve-oltp" -> W_serve.oltp cfg
  | "serve-analytics" -> W_serve.analytics cfg
  | "cluster-mixed" -> W_cluster.run cfg
  | "etl-refresh" -> W_etl.run cfg
  | _ -> usage ()

(* Host CPU ticks (total, steal, iowait) from /proc/stat: the report
   prints the steal and iowait shares over the run, so a run slowed by
   its neighbours on a shared machine can be told apart. *)
let host_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      match String.split_on_char ' ' (input_line ic) |> List.filter (( <> ) "") with
      | "cpu" :: fields ->
          let v = List.map int_of_string fields |> Array.of_list in
          if Array.length v >= 8 then
            Some (Array.fold_left ( + ) 0 v, v.(7), v.(4))
          else None
      | _ -> None
      | exception _ -> None

let trace_overhead (o : outcome) =
  let count traced =
    List.length (List.filter (fun op -> op.ok && op.traced = traced) o.ops)
  in
  (* the traced and untraced halves of the window are equally long *)
  layer_ratio ~note:"traced / untraced completed ops over equal halves (U T T U)"
    "obs.trace_overhead_ratio"
    (Stats.ratio_i (count true) (count false))

let () =
  let args = parse_args () in
  let root = Sys.getcwd () in
  let genalg = Filename.concat root "_build/default/bin/genalg.exe" in
  if not (Sys.file_exists genalg) then begin
    prerr_endline "perfbench: genalg executable not built (run perfbench/run.py)";
    exit 2
  end;
  let out_dir = Filename.concat root "perfbench/_out" in
  let work =
    Filename.concat root
      (Printf.sprintf "perfbench/_work/%s-%d" args.workload (Unix.getpid ()))
  in
  mkdir_p out_dir;
  rm_rf work;
  mkdir_p work;
  Sys.chdir work;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let cleanup () =
    kill_children ();
    Sys.chdir root;
    rm_rf work;
    (* the shared parent goes too once no other run uses it *)
    try Unix.rmdir (Filename.dirname work) with Unix.Unix_error _ -> ()
  in
  if args.trace then begin
    Genalg_obs.Obs.set_enabled true;
    Trace.set_enabled true
  end;
  let ticks0 = host_ticks () in
  let o =
    try run_workload args ~genalg
    with e ->
      cleanup ();
      Printf.eprintf "perfbench %s: %s\n" args.workload (Printexc.to_string e);
      exit 1
  in
  cleanup ();
  print_report args o;
  (match (ticks0, host_ticks ()) with
  | Some (t0, s0, w0), Some (t1, s1, w1) when t1 > t0 ->
      let share a b = 100. *. float_of_int (b - a) /. float_of_int (t1 - t0) in
      Printf.printf "  host over the run: %.1f%% CPU steal, %.1f%% iowait\n"
        (share s0 s1) (share w0 w1)
  | _ -> ());
  let attempted = List.length o.ops in
  let failed = List.length (List.filter (fun op -> not op.ok) o.ops) in
  let correct = o.check_failures = [] && failed = 0 in
  let metrics =
    if not args.trace then
      List.map
        (fun (name, unit, value) -> { Stats.m_name = name; m_unit = unit; m_value = value })
        (e2e_metrics o)
    else begin
      let given = trace_overhead o :: o.layers in
      List.iter
        (fun l ->
          match List.assoc_opt l.l_name per_layer with
          | Some u when u = l.l_unit -> ()
          | _ -> failf "undeclared per-layer metric %s (%s)" l.l_name l.l_unit)
        given;
      let layers =
        List.map
          (fun (name, unit) ->
            match List.find_opt (fun l -> l.l_name = name) given with
            | Some l -> l
            | None -> layer ~note:"layer not exercised by this workload" name unit 0.)
          per_layer
      in
      Printf.printf "per-layer (counts at --jobs 1 where lib/par could bump them):\n";
      List.iter
        (fun l ->
          Printf.printf "  %-40s %14.6g %-6s %s\n" l.l_name l.l_value l.l_unit l.l_note)
        layers;
      Printf.printf "spans (name, count, total s, self s):\n";
      List.iter
        (fun (s : Trace.summary) ->
          Printf.printf "  %-24s %8d %10.4f %10.4f\n" s.Trace.s_name s.Trace.count
            s.Trace.total_s s.Trace.self_total_s)
        (Trace.summary ());
      let path =
        Filename.concat out_dir
          (Printf.sprintf "trace-%s-%d.jsonl" args.workload args.seed)
      in
      Trace.write path;
      Printf.printf "spans written to %s\n"
        (Filename.concat "perfbench/_out" (Filename.basename path));
      List.map
        (fun l -> { Stats.m_name = l.l_name; m_unit = l.l_unit; m_value = l.l_value })
        layers
    end
  in
  print_endline (Stats.result_line ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)
