(* In-process replay for the traced run: the statement stream a run
   recorded is replayed against a copy of the same warehouse, and the
   public layer functions are timed one by one. Counting passes run at
   --jobs 1: Obs counters bumped from lib/par worker domains lose
   increments at jobs > 1, so no count below is read from a parallel
   pass. *)

open Common
module Stats = Perfbench_stats.Stats
module Db = Genalg_storage.Database
module Exec = Genalg_sqlx.Exec
module Parser = Genalg_sqlx.Parser
module Ast = Genalg_sqlx.Ast
module Par = Genalg_par.Par

type ev = Stmt of string | Begin | Commit

type counts = {
  before : (string * reading) list;
  after : (string * reading) list;
  alloc_bytes : float;        (* allocated around Exec calls *)
  clone_s : float list;       (* one per replayed BEGIN *)
  statements : int;
  rows_written : int;         (* rows INSERTed by the replayed stream *)
}

let attach db = Genalg_adapter.Adapter.attach db Genalg_core.Builtin.default

let is_select sql =
  let s = String.lowercase_ascii (String.trim sql) in
  String.length s >= 6 && String.sub s 0 6 = "select"

(* Replay [events] (actor, event) in order: statements outside a
   transaction run on [db]; BEGIN clones [db] the way the server's
   copy-on-BEGIN does, statements inside run on the clone, and COMMIT
   re-applies the transaction's writes to [db]. *)
let counting_pass db events =
  Par.set_jobs 1;
  Exec.clear_statement_caches ();
  let txns = Hashtbl.create 4 in
  let alloc = ref 0. and clones = ref [] in
  let statements = ref 0 and written = ref 0 in
  let run target ~actor sql =
    let a0 = Gc.allocated_bytes () in
    let r = Trace.span "exec.query" (fun () -> Exec.query target ~actor sql) in
    alloc := !alloc +. (Gc.allocated_bytes () -. a0);
    incr statements;
    match r with Ok (Exec.Affected n) -> written := !written + n | _ -> ()
  in
  let before = registry () in
  List.iter
    (fun (actor, ev) ->
      match ev with
      | Begin ->
          let snap, dt =
            timed (fun () -> Trace.span "database.clone" (fun () -> Db.clone db))
          in
          attach snap;
          clones := dt :: !clones;
          Hashtbl.replace txns actor (snap, [])
      | Stmt sql -> (
          match Hashtbl.find_opt txns actor with
          | Some (snap, writes) ->
              let a0 = Gc.allocated_bytes () in
              ignore (Trace.span "exec.query" (fun () -> Exec.query snap ~actor sql));
              alloc := !alloc +. (Gc.allocated_bytes () -. a0);
              incr statements;
              if not (is_select sql) then
                Hashtbl.replace txns actor (snap, sql :: writes)
          | None -> run db ~actor sql)
      | Commit -> (
          match Hashtbl.find_opt txns actor with
          | Some (_, writes) ->
              Hashtbl.remove txns actor;
              List.iter (fun sql -> run db ~actor sql) (List.rev writes);
              statements := !statements - List.length writes
          | None -> ()))
    events;
  let after = registry () in
  Par.set_jobs 2;
  {
    before;
    after;
    alloc_bytes = !alloc;
    clone_s = List.rev !clones;
    statements = !statements;
    rows_written = !written;
  }

(* Per-template timing with every statement cache cleared first:
   [Parser.parse], [Exec.explain ~analyze:false] and [Exec.run]. Returns
   (parse_us list, plan_us list, per-template exec_ms lists). *)
let timing_pass db ~actor templates =
  let parse = ref [] and plan = ref [] in
  let exec =
    List.map
      (fun (name, sqls) ->
        let times =
          List.filter_map
            (fun sql ->
              let stmt, dt =
                timed (fun () -> Trace.span "parser.parse" (fun () -> Parser.parse sql))
              in
              parse := (dt *. 1e6) :: !parse;
              match stmt with
              | Error _ -> None
              | Ok stmt ->
                  (match stmt with
                  | Ast.Select sel ->
                      Exec.clear_statement_caches ();
                      let _, dt =
                        timed (fun () ->
                            Trace.span "exec.explain" (fun () ->
                                Exec.explain db ~actor ~analyze:false sel))
                      in
                      plan := (dt *. 1e6) :: !plan
                  | _ -> ());
                  Exec.clear_statement_caches ();
                  let _, dt =
                    timed (fun () -> Trace.span "exec.run" (fun () -> Exec.run db ~actor stmt))
                  in
                  Some (dt *. 1e3))
            sqls
        in
        (name, times))
      templates
  in
  (!parse, !plan, exec)

(* The sqlx.exec_ms.<template> names every workload reports (0 where a
   workload runs no statement of that template). *)
let exec_templates =
  [ "point_read"; "gc_filter"; "length_filter"; "contains_filter"; "group_by"; "join" ]

let sqlx_layers ~note (parse, plan, exec) =
  [
    layer ~note "sqlx.parse_us" "us" (mean_or_zero parse);
    layer ~note "sqlx.plan_us" "us" (mean_or_zero plan);
  ]
  @ List.map
      (fun t ->
        let xs = Option.value (List.assoc_opt t exec) ~default:[] in
        layer ~note:(Printf.sprintf "%d statements; %s" (List.length xs) note)
          ("sqlx.exec_ms." ^ t) "ms" (mean_or_zero xs))
      exec_templates

(* Storage, cache and vectorised-kernel figures from a counting pass. *)
let storage_layers ?(note = "in-process replay at --jobs 1") ~ops_label ~ops
    ~point_reads c =
  let d = dcount c.before c.after in
  let per name n base =
    layer_ratio ~note name (Stats.ratio_i n base)
  in
  [
    per "storage.heap.inserts_per_row_written" (d "storage.heap.inserts") c.rows_written;
    per "storage.btree.inserts_per_row_written" (d "storage.btree.inserts") c.rows_written;
    per "storage.btree.lookups_per_point_read" (d "storage.btree.lookups") point_reads;
    layer_ratio ~note:(note ^ "; per " ^ ops_label) "storage.page.reads_per_op"
      (Stats.ratio_i (d "storage.page.reads") ops);
    per "storage.table.rows_scanned_per_row_out" (d "storage.table.rows_scanned")
      (d "sqlx.rows_out");
    layer_ratio ~note "cache.bufferpool.hit_ratio" (hit_ratio c.before c.after "bufferpool");
    layer_ratio ~note:(note ^ "; per " ^ ops_label) "cache.bufferpool.evictions_per_op"
      (Stats.ratio_i (d "cache.bufferpool.evictions") ops);
    per "sqlx.vec.kernel_row_share" (d "sqlx.vec.kernel_rows") (d "sqlx.vec.rows");
    layer_ratio ~note "sqlx.alloc_bytes_per_row_scanned"
      (Stats.ratio c.alloc_bytes (float_of_int (d "storage.table.rows_scanned")));
    per "sqlx.opt.index_path_share" (d "sqlx.opt.index_paths") (d "sqlx.queries");
  ]
