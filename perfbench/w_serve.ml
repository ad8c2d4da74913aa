(* serve-oltp and serve-analytics: a [genalg serve --jobs 2] child over a
   generated warehouse, driven over the wire protocol by closed-loop
   sessions, one domain each. *)

open Common
module Stats = Perfbench_stats.Stats
module Client = Genalg_serve.Client
module P = Genalg_serve.Protocol
module Db = Genalg_storage.Database
module D = Genalg_storage.Dtype
module Exec = Genalg_sqlx.Exec
module Rng = Genalg_synth.Rng
module Wal = Genalg_storage.Wal

let call ~traced name f = if traced then Trace.span name f else f ()

(* ---- server lifecycle ---------------------------------------------- *)

let socket = "serve.sock"

let connect actor =
  ok_or_fail ("connect " ^ actor) (Client.connect ~actor ~socket ())

let start_server cfg ~db =
  let pid =
    spawn ~log:"server.log" cfg.genalg
      [ "serve"; db; "--socket"; socket; "--jobs"; "2"; "--max-query-s"; "60" ]
  in
  let deadline = now () +. 60. in
  let rec wait () =
    match Client.connect ~actor:"probe" ~socket () with
    | Ok c -> Client.close c
    | Error _ ->
        if not (alive pid) then
          failf "genalg serve exited during start-up (see server.log)"
        else if now () > deadline then failf "genalg serve did not come up"
        else begin
          Unix.sleepf 0.005;
          wait ()
        end
  in
  wait ();
  pid

let stop_server pid ~dirty =
  let c = connect "admin" in
  ignore (Client.shutdown c ~dirty);
  Client.close c;
  if not (wait_exit pid) then failf "genalg serve did not stop cleanly"

let exec c sql =
  match Client.query c sql with
  | Ok (P.Error_reply { message; _ }) -> failf "%s: %s" sql message
  | Ok r -> r
  | Error m -> failf "%s: %s" sql m

let stats_page c =
  match Client.stats c with
  | Ok text -> parse_stats_page text
  | Error m -> failf "stats: %s" m

(* ---- output checks --------------------------------------------------- *)

let sort_rows rows = List.sort compare rows

(* The single-node engine's answer for [sql] on the in-process copy,
   memoised per statement text. *)
let oracle db ~actor =
  let memo = Hashtbl.create 256 in
  fun sql ->
    match Hashtbl.find_opt memo sql with
    | Some v -> v
    | None ->
        let v =
          match Exec.query db ~actor sql with
          | Ok (Exec.Rows rs) -> Ok (rs.Exec.columns, sort_rows rs.Exec.rows)
          | Ok _ -> Error "not a result set"
          | Error m -> Error m
        in
        Hashtbl.replace memo sql v;
        v

let check_read expected sql reply () =
  match (reply, expected sql) with
  | P.Rows { columns; rows }, Ok (cols, exp) ->
      if columns = cols && sort_rows rows = exp then None
      else Some ("wrong answer: " ^ sql)
  | _, Error m -> Some (Printf.sprintf "oracle failed on %s: %s" sql m)
  | _ -> Some ("not a result set: " ^ sql)

(* ---- sessions --------------------------------------------------------- *)

type session = {
  actor : string;
  client : Client.t;
  rng : Rng.t;
  draw : unit -> int;  (* the session's exact-proportion mix *)
  mutable acked : int list;  (* annotation keys acknowledged *)
  mutable next_k : int;
  mutable events : (float * string * Replay.ev) list;  (* for replay *)
  mutable frames : (P.request * P.reply) list;  (* traced segments *)
  mutable stmt_s : float;  (* client-side time in Client.query *)
  mutable stmts : int;
}

let session ?(mix = [ (0, 1) ]) actor client rng =
  { actor; client; rng; draw = Gen.deck rng mix; acked = []; next_k = 0;
    events = []; frames = []; stmt_s = 0.; stmts = 0 }

let record s ev = s.events <- (now (), s.actor, ev) :: s.events

(* One statement; [Ok reply] only for a reply [expect] accepts. *)
let query s ~traced ~expect sql =
  record s (Replay.Stmt sql);
  let r, dt = timed (fun () -> call ~traced "client.query" (fun () -> Client.query s.client sql)) in
  s.stmt_s <- s.stmt_s +. dt;
  s.stmts <- s.stmts + 1;
  match r with
  | Ok reply ->
      if traced && List.length s.frames < 4000 then
        s.frames <- (P.Query { sql }, reply) :: s.frames;
      if expect reply then Ok reply else Error ()
  | Error _ -> Error ()

let is_rows = function P.Rows _ -> true | _ -> false
let is_one = function P.Affected 1 -> true | _ -> false

(* Run one closed loop per session, each on its own system thread. The
   sessions spend their time blocked on the socket, which releases the
   runtime lock; threads of one domain avoid the stop-the-world minor
   collections that extra domains would add to the load side. *)
let run_window cfg sessions step =
  let t0 = now () in
  let completed = Atomic.make 0 in
  let threads =
    List.map
      (fun s ->
        let ops = ref [] in
        let th =
          Thread.create
            (fun () ->
              ops :=
                closed_loop ~completed ~trace_run:cfg.trace ~t0 ~seconds:cfg.seconds
                  (step s))
            ()
        in
        (th, ops))
      sessions
  in
  let ops = List.concat_map (fun (th, ops) -> Thread.join th; !ops) threads in
  let window_s = now () -. t0 in
  (List.sort (fun a b -> compare a.start b.start) ops, window_s)

let merged_events sessions =
  List.concat_map (fun s -> s.events) sessions
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  |> List.map (fun (_, actor, ev) -> (actor, ev))

(* ---- set-up ------------------------------------------------------------ *)

type warehouse = { db : Db.t; user_bytes : float; image : string }

(* Row shape of both served warehouses: 500 bp sequences and 170-character
   definition lines. *)
let seq_length = 500
let definition = 170

let heap_note wh =
  match Db.find_table wh.db ~space:Db.Public "sequences" with
  | Some t ->
      Printf.sprintf "sequences: %d rows, %d heap pages (buffer pool %d frames)"
        (Genalg_storage.Table.row_count t) (Genalg_storage.Table.page_count t)
        (Genalg_storage.Buffer_pool.default_capacity ())
  | None -> "sequences table missing"


let build_warehouse cfg ~n ~seq_length ~image =
  let entries = Gen.entries (Gen.rng ~seed:cfg.seed 1) ~n ~seq_length ~definition in
  let db = Gen.warehouse entries in
  List.iter rm_rf [ image; image ^ ".wal"; image ^ ".epoch"; socket ];
  ok_or_fail "save" (Db.save db image);
  let user_bytes =
    float_of_int (List.fold_left (fun a e -> a + Gen.entry_bytes e) 0 entries)
  in
  { db; user_bytes; image }

(* ---- serve.* figures from the server's own registry ----------------- *)

let serve_layers ~before ~after ~sessions ~frames =
  let d = dcount before after in
  let note = "server registry over the wire" in
  let stmt_ms = dmean_ms before after "serve.query" in
  (* client-side latency of the same statements, whole window *)
  let client_stmt_ms =
    let n = List.fold_left (fun a s -> a + s.stmts) 0 sessions in
    if n = 0 then 0.
    else List.fold_left (fun a s -> a +. s.stmt_s) 0. sessions /. float_of_int n *. 1e3
  in
  let codec_us, reply_bytes =
    let enc = ref [] and bytes = ref [] in
    List.iter
      (fun (req, reply) ->
        let _, dt =
          timed (fun () ->
              Trace.span "protocol.codec" (fun () ->
                  let r = P.encode_request req in
                  ignore (P.decode_request r);
                  let b = P.encode_reply reply in
                  ignore (P.decode_reply b);
                  b))
        in
        enc := (dt *. 1e6) :: !enc;
        match reply with
        | P.Rows _ -> bytes := float_of_int (String.length (P.encode_reply reply)) :: !bytes
        | _ -> ())
      frames;
    (!enc, !bytes)
  in
  [
    layer ~note:(Printf.sprintf "%d statements; %s" (d "serve.queries") note)
      "serve.stmt_ms" "ms" stmt_ms;
    layer ~note:"client-side Client.query mean minus serve.stmt_ms"
      "serve.outside_stmt_ms" "ms" (client_stmt_ms -. stmt_ms);
    layer ~note:(Printf.sprintf "%d recorded request/reply pairs" (List.length codec_us))
      "serve.codec_us" "us" (mean_or_zero codec_us);
    layer ~note:(Printf.sprintf "%d result-set replies" (List.length reply_bytes))
      "serve.reply_bytes_per_read" "bytes" (mean_or_zero reply_bytes);
    layer_ratio ~note "serve.commits_per_flush"
      (Stats.ratio_i (d "serve.group_commit.commits") (d "serve.group_commit.batches"));
    layer_ratio ~note "serve.txn.conflict_ratio"
      (Stats.ratio_i (d "serve.txn.conflict") (d "serve.txn.begin"));
    layer_ratio ~note "cache.stmt.hit_ratio" (hit_ratio before after "stmt");
    layer_ratio ~note "cache.plan.hit_ratio" (hit_ratio before after "plan");
    layer_ratio ~note "cache.result.hit_ratio" (hit_ratio before after "result");
    layer_ratio ~note "par.inline_ratio"
      (Stats.ratio_i (d "par.ops_inline") (d "par.ops"));
    layer_ratio ~note "par.chunks_per_query"
      (Stats.ratio_i (d "par.chunks") (d "sqlx.queries"));
  ]

(* ======================================================================
   serve-oltp
   ====================================================================== *)

let oltp_rows = 3_200
let replay_cap = 400

let oltp_read_sql key =
  Printf.sprintf
    "SELECT accession, organism, length, gc FROM sequences WHERE accession = '%s'"
    (Gen.accession key)

let notes_ddl = "CREATE TABLE notes (accession string, k int, tag string)"

let oltp cfg =
  let zipf = Gen.zipf (Gen.rng ~seed:cfg.seed 2) ~n:oltp_rows ~s:1.0 in
  let setup () =
    let wh =
      build_warehouse cfg ~n:oltp_rows ~seq_length ~image:"oltp.db"
    in
    let pid = start_server cfg ~db:wh.image in
    let sessions =
      List.init 2 (fun i ->
          let actor = Printf.sprintf "curator%d" i in
          let client = connect actor in
          ignore (exec client notes_ddl);
          let rng = Gen.rng ~seed:cfg.seed (10 + i) in
          (* warm-up: statement, plan and result caches *)
          for _ = 1 to 200 do
            ignore (exec client (oltp_read_sql (Gen.zipf_draw zipf rng)))
          done;
          session ~mix:[ (0, 70); (1, 20); (2, 10) ] actor client rng)
    in
    (wh, pid, sessions)
  in
  let teardown (_, pid, sessions) =
    List.iter (fun s -> Client.close s.client) sessions;
    stop_server pid ~dirty:false
  in
  let (wh, pid, sessions), setup_s = repeated_setup cfg ~setup ~teardown in
  let expected = oracle wh.db ~actor:"curator0" in
  let step s ~traced =
    let key = Gen.zipf_draw zipf s.rng in
    let read () =
      let sql = oltp_read_sql key in
      match query s ~traced ~expect:is_rows sql with
      | Ok reply -> (true, [ check_read expected sql reply ])
      | Error () -> (false, [])
    in
    let insert tag =
      let k = s.next_k in
      s.next_k <- k + 1;
      let r =
        query s ~traced ~expect:is_one
          (Printf.sprintf "INSERT INTO notes VALUES ('%s', %d, '%s')"
             (Gen.accession key) k tag)
      in
      (k, Result.is_ok r)
    in
    match s.draw () with
    | 0 ->
      let ok, checks = read () in
      (Read, ok, checks)
    | 1 -> begin
      let k, ok = insert "auto" in
      if ok then s.acked <- k :: s.acked;
      (Write, ok, [])
    end
    | _ -> begin
      record s Replay.Begin;
      match call ~traced "client.begin" (fun () -> Client.begin_ s.client) with
      | Error _ -> (Txn, false, [])
      | Ok () ->
          let r_ok, checks = read () in
          let k, w_ok = insert "curated" in
          let c_ok =
            if r_ok && w_ok then begin
              record s Replay.Commit;
              Result.is_ok
                (call ~traced "client.commit" (fun () -> Client.commit s.client))
            end
            else begin
              ignore (Client.rollback s.client);
              false
            end
          in
          if c_ok then s.acked <- k :: s.acked;
          (Txn, r_ok && w_ok && c_ok, checks)
    end
  in
  let admin = connect "admin" in
  let before = stats_page admin in
  let cpu0 = cpu_s pid in
  let ops, window_s = run_window cfg sessions step in
  let cpu = cpu_s pid -. cpu0 in
  let after = stats_page admin in
  Client.close admin;
  let peak = peak_rss_mb pid in
  let stored = file_size wh.image +. file_size (Wal.wal_path wh.image) in
  let check_failures = run_checks ops in
  (* durability: stop without a checkpoint right after the last
     acknowledgement, restart, and look for every acknowledged write *)
  List.iter (fun s -> Client.close s.client) sessions;
  stop_server pid ~dirty:true;
  let pid2, replay_s = timed (fun () -> start_server cfg ~db:wh.image) in
  let lost =
    List.concat_map
      (fun s ->
        let c = connect s.actor in
        let present = Hashtbl.create 1024 in
        (match exec c "SELECT k FROM notes" with
        | P.Rows { rows; _ } ->
            List.iter
              (function [| D.Int k |] -> Hashtbl.replace present k () | _ -> ())
              rows
        | _ -> ());
        Client.close c;
        List.filter_map
          (fun k ->
            if Hashtbl.mem present k then None
            else Some (Printf.sprintf "%s: acknowledged k=%d lost after restart" s.actor k))
          s.acked)
      sessions
  in
  stop_server pid2 ~dirty:false;
  fail_ops ops ~kinds:[ Write; Txn ] (List.length lost);
  (* user payload: the generated entries plus each acknowledged
     annotation (accession, tag, key) *)
  let ann_bytes =
    List.fold_left (fun a s -> a + (List.length s.acked * (9 + 7 + 8))) 0 sessions
  in
  let layers =
    if not cfg.trace then []
    else begin
      let events = merged_events sessions in
      let frames = List.concat_map (fun s -> s.frames) sessions in
      (* replay on the in-process copy, capped *)
      let db = Db.clone wh.db in
      Replay.attach db;
      List.iter
        (fun s -> ignore (ok_or_fail "notes" (Exec.query db ~actor:s.actor notes_ddl)))
        sessions;
      let events = List.filteri (fun i _ -> i < replay_cap) events in
      let point_reads =
        List.length
          (List.filter
             (function _, Replay.Stmt sql -> Replay.is_select sql | _ -> false)
             events)
      in
      let c = Replay.counting_pass db events in
      let clone_ms = mean_or_zero (List.map (fun s -> s *. 1e3) c.Replay.clone_s) in
      let reads =
        List.filter_map
          (function _, Replay.Stmt sql when Replay.is_select sql -> Some sql | _ -> None)
          events
        |> List.filteri (fun i _ -> i < 40)
      in
      let timing = Replay.timing_pass wh.db ~actor:"curator0" [ ("point_read", reads) ] in
      (* WAL flush of the run's commit records into a scratch log *)
      let flush_ms =
        let path = "scratch.wal" in
        rm_rf path;
        let wal = ok_or_fail "wal" (Wal.open_ path) in
        let txn = ref 0 and times = ref [] in
        let in_txn = Hashtbl.create 4 in
        List.iter
          (fun (actor, ev) ->
            let commit stmts =
              incr txn;
              Wal.append_begin wal ~txn:!txn;
              List.iter (fun sql -> Wal.append_stmt wal ~txn:!txn ~actor ~sql) stmts;
              Wal.append_commit wal ~txn:!txn;
              let _, dt =
                timed (fun () -> Trace.span "wal.flush" (fun () -> Wal.flush wal))
              in
              times := (dt *. 1e3) :: !times
            in
            match ev with
            | Replay.Begin -> Hashtbl.replace in_txn actor []
            | Replay.Commit ->
                commit (List.rev (Option.value (Hashtbl.find_opt in_txn actor) ~default:[]));
                Hashtbl.remove in_txn actor
            | Replay.Stmt sql when not (Replay.is_select sql) -> (
                match Hashtbl.find_opt in_txn actor with
                | Some l -> Hashtbl.replace in_txn actor (sql :: l)
                | None -> commit [ sql ])
            | Replay.Stmt _ -> ())
          events;
        Wal.close wal;
        rm_rf path;
        !times
      in
      let d = dcount before after in
      let txn_p50 =
        Stats.median
          (Stats.sorted_copy
             (Array.of_list
                (List.filter_map
                   (fun o -> if o.kind = Txn && o.ok then Some (o.lat *. 1e3) else None)
                   ops)))
      in
      serve_layers ~before ~after ~sessions ~frames
      @ [
          layer
            ~note:(Printf.sprintf "%d replayed BEGINs" (List.length c.Replay.clone_s))
            "storage.clone_ms" "ms" clone_ms;
          layer_ratio ~note:"storage.clone_ms over the window's transaction p50"
            "storage.clone_share_of_txn_p50"
            (Stats.ratio clone_ms (Option.value txn_p50 ~default:0.));
          layer ~note:(Printf.sprintf "%d scratch-WAL flushes" (List.length flush_ms))
            "storage.wal.flush_ms" "ms" (mean_or_zero flush_ms);
          layer_ratio ~note:"server registry over the wire"
            "storage.wal.bytes_per_commit"
            (Stats.ratio_i (d "storage.wal.flushed_bytes") (d "serve.group_commit.commits"));
          layer ~note:"restart after a dirty shutdown, to first accepted connection"
            "storage.wal.replay_s" "s" replay_s;
        ]
      @ Replay.storage_layers ~ops_label:"replayed statement" ~ops:c.Replay.statements
          ~point_reads c
      @ Replay.sqlx_layers ~note:"caches cleared" timing
    end
  in
  {
    setup_s;
    window_s;
    cpu_s = cpu;
    ops;
    check_failures = check_failures @ lost;
    peak_rss_mb = peak;
    stored_bytes = stored;
    user_bytes = wh.user_bytes +. float_of_int ann_bytes;
    extra = [ ("storage.wal.replay_s", "s", replay_s) ];
    layers;
    notes = [ heap_note wh ];
  }

(* ======================================================================
   serve-analytics
   ====================================================================== *)

let analytics_rows = 6_400

(* Read-only templates; literals come from wide seeded ranges so the
   result cache serves few repeats. *)
let analytics_sql rng template =
  let f lo w = lo +. (Rng.float rng *. w) in
  match template with
  | 0 ->
      let lo = f 0.40 0.18 in
      ( "gc_filter",
        Printf.sprintf
          "SELECT accession, organism, length FROM sequences WHERE gc_content(seq) \
           >= %.5f AND gc_content(seq) < %.5f"
          lo (lo +. f 0.002 0.004) )
  | 1 ->
      let lo = 630 + Rng.int rng 180 in
      ( "length_filter",
        Printf.sprintf
          "SELECT accession, gc FROM sequences WHERE length >= %d AND length < %d"
          lo (lo + 1 + Rng.int rng 3) )
  | 2 ->
      ( "contains_filter",
        Printf.sprintf "SELECT accession, length FROM sequences WHERE contains(seq, '%s')"
          (Genalg_synth.Seqgen.dna_string rng 8) )
  | 3 ->
      ( "group_by",
        Printf.sprintf
          "SELECT organism, count(*), avg(length), min(gc), max(gc) FROM sequences \
           WHERE gc >= %.5f GROUP BY organism"
          (f 0.40 0.15) )
  | _ ->
      let lo = f 0.40 0.18 in
      ( "join",
        Printf.sprintf
          "SELECT s.accession, g.exon_count, g.length FROM sequences s, genes g \
           WHERE s.accession = g.accession AND s.gc >= %.5f AND s.gc < %.5f"
          lo (lo +. f 0.002 0.004) )

let analytics_prepare c =
  ignore (exec c "CREATE GENOMIC INDEX ON sequences (seq)");
  ignore (exec c "ANALYZE sequences")

let analytics cfg =
  let setup () =
    let wh =
      build_warehouse cfg ~n:analytics_rows ~seq_length
        ~image:"analytics.db"
    in
    let pid = start_server cfg ~db:wh.image in
    let etl = connect Db.loader_actor in
    analytics_prepare etl;
    Client.close etl;
    let rng = Gen.rng ~seed:cfg.seed 20 in
    let client = connect "analyst" in
    for t = 0 to 9 do
      ignore (exec client (snd (analytics_sql rng (t mod 5))))
    done;
    (wh, pid, session ~mix:(List.init 5 (fun t -> (t, 2))) "analyst" client rng)
  in
  let teardown (_, pid, s) =
    Client.close s.client;
    stop_server pid ~dirty:false
  in
  let (wh, pid, s), setup_s = repeated_setup cfg ~setup ~teardown in
  let expected = oracle wh.db ~actor:"analyst" in
  let by_template = Hashtbl.create 8 in
  let step s ~traced =
    let template, sql = analytics_sql s.rng (s.draw ()) in
    if List.length (Hashtbl.find_all by_template template) < 12 then
      Hashtbl.add by_template template sql;
    match query s ~traced ~expect:is_rows sql with
    | Ok reply -> (Read, true, [ check_read expected sql reply ])
    | Error () -> (Read, false, [])
  in
  let admin = connect "admin" in
  let before = stats_page admin in
  let cpu0 = cpu_s pid in
  let ops, window_s = run_window cfg [ s ] step in
  let cpu = cpu_s pid -. cpu0 in
  let after = stats_page admin in
  Client.close admin;
  let peak = peak_rss_mb pid in
  let stored = file_size wh.image +. file_size (Wal.wal_path wh.image) in
  Client.close s.client;
  stop_server pid ~dirty:false;
  (* answers do not depend on the access path, so the oracle checks
     without the genomic index; the traced replay builds it to match the
     server's plans *)
  let check_failures = run_checks ops in
  if cfg.trace then
    List.iter
      (fun sql -> ignore (ok_or_fail sql (Exec.query wh.db ~actor:Db.loader_actor sql)))
      [ "CREATE GENOMIC INDEX ON sequences (seq)"; "ANALYZE sequences" ];
  let layers =
    if not cfg.trace then []
    else begin
      let events =
        merged_events [ s ] |> List.filteri (fun i _ -> i < 60)
      in
      let c = Replay.counting_pass wh.db events in
      let templates =
        List.map
          (fun t -> (t, Hashtbl.find_all by_template t))
          Replay.exec_templates
      in
      let timing = Replay.timing_pass wh.db ~actor:"analyst" templates in
      serve_layers ~before ~after ~sessions:[ s ] ~frames:s.frames
      @ [
          layer ~note:"no BEGIN on this workload" "storage.clone_ms" "ms" 0.;
          layer_ratio ~note:"no transactions on this workload"
            "storage.clone_share_of_txn_p50" (Stats.ratio 0. 0.);
          layer ~note:"no commits on this workload" "storage.wal.flush_ms" "ms" 0.;
          layer_ratio ~note:"server registry over the wire"
            "storage.wal.bytes_per_commit"
            (Stats.ratio_i
               (dcount before after "storage.wal.flushed_bytes")
               (dcount before after "serve.group_commit.commits"));
          layer ~note:"no restart on this workload" "storage.wal.replay_s" "s" 0.;
        ]
      @ Replay.storage_layers ~ops_label:"replayed statement" ~ops:c.Replay.statements
          ~point_reads:0 c
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
    user_bytes = wh.user_bytes;
    extra = [];
    layers;
    notes = [ heap_note wh ];
  }
