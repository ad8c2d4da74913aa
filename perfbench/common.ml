(* Shared harness plumbing: child processes, files, memory, the closed
   loop, the recorded operations and the metric lists a workload
   returns. *)

module Obs = Genalg_obs.Obs
module Stats = Perfbench_stats.Stats

let now = Obs.now_s

(* Time [f] and return (result, seconds). *)
let timed f =
  let t = now () in
  let v = f () in
  (v, now () -. t)

let failf fmt = Printf.ksprintf failwith fmt

let ok_or_fail what = function Ok v -> v | Error m -> failf "%s: %s" what m

(* ---- files ---------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let rec mkdir_p path =
  if path <> "" && path <> "." && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let file_size path =
  match Unix.stat path with
  | st -> float_of_int st.Unix.st_size
  | exception Unix.Unix_error _ -> 0.

let rec du path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> 0.
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc e -> acc +. du (Filename.concat path e))
        0. (Sys.readdir path)
  | st -> float_of_int st.Unix.st_size

(* ---- memory --------------------------------------------------------- *)

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec loop () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf
          (String.sub line 6 (String.length line - 6))
          " %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> loop ()
    | exception End_of_file -> failf "no VmHWM in %s" path
  in
  loop ()

(* CPU time (user + system) a process has used so far, in seconds; [pid]
   0 is this process. Time the hypervisor gave to other machines (steal)
   is not in it. *)
let cpu_s pid =
  if pid = 0 then
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  else begin
    let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    (* after the parenthesised command name: the state, ten more fields,
       then utime and stime in clock ticks of 1/100 s *)
    let after = String.rindex line ')' + 2 in
    match String.split_on_char ' ' (String.sub line after (String.length line - after)) with
    | _ :: fields when List.length fields >= 12 ->
        (float_of_string (List.nth fields 10) +. float_of_string (List.nth fields 11)) /. 100.
    | _ -> failf "cannot parse /proc/%d/stat" pid
  end

(* ---- child processes ------------------------------------------------ *)

let children : int list ref = ref []

let spawn ~log prog args =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out; Unix.close devnull)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) devnull out out)
  in
  children := pid :: !children;
  pid

let reap pid = children := List.filter (( <> ) pid) !children

(* Wait for [pid] to exit; SIGKILL it after [timeout_s]. *)
let wait_exit ?(timeout_s = 60.) pid =
  let deadline = now () +. timeout_s in
  let rec loop () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if now () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          reap pid;
          false
        end
        else begin
          Unix.sleepf 0.01;
          loop ()
        end
    | _, Unix.WEXITED 0 -> reap pid; true
    | _ -> reap pid; false
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> reap pid; true
  in
  loop ()

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> reap pid; false
  | exception Unix.Unix_error _ -> false

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

(* ---- runs ----------------------------------------------------------- *)

type cfg = {
  genalg : string;  (* path of the genalg executable *)
  seed : int;
  seconds : float;
  trace : bool;
  reps : int;       (* set-up repetitions *)
}

(* Set up [cfg.reps] times, tearing down all but the last; return the
   last set-up and every timing. *)
let repeated_setup cfg ~setup ~teardown =
  let rec go i acc =
    let v, dt = timed setup in
    if i + 1 < cfg.reps then begin
      teardown v;
      Gc.compact ();
      go (i + 1) (dt :: acc)
    end
    else (v, List.rev (dt :: acc))
  in
  go 0 []

(* ---- operations ----------------------------------------------------- *)

type kind = Read | Write | Txn | Refresh

let kind_name = function
  | Read -> "read"
  | Write -> "write"
  | Txn -> "txn"
  | Refresh -> "refresh"

type op = {
  kind : kind;
  start : float;  (* seconds since the window opened *)
  lat : float;    (* seconds *)
  mutable ok : bool;
  traced : bool;
  checks : (unit -> string option) list;
      (* deferred output checks, run after the window *)
}

(* A closed-loop session: [step ~traced] performs one client operation
   (its reply is awaited before the next is sent) and returns its kind,
   whether it succeeded, and the checks to run on its output later.
   [prepare] runs untimed before each operation that will run (input
   generation on the load side), so a run never ends on inputs the
   program has not been shown. Sessions of one window share [completed],
   which keeps the window open until enough operations are done (see
   [Stats.window_open]). In a traced run the window is split into four equal
   segments, untraced-traced-traced-untraced, so the trace
   overhead ratio is not biased by drift within the window. *)
let closed_loop ?(prepare = ignore) ?(completed = Atomic.make 0) ~trace_run ~t0
    ~seconds step =
  let ops = ref [] in
  let rec loop () =
    if Stats.window_open ~elapsed:(now () -. t0) ~seconds ~completed:(Atomic.get completed)
    then begin
      prepare ();
      let start = now () in
      let seg = int_of_float ((start -. t0) /. (seconds /. 4.)) in
      let traced = trace_run && (seg = 1 || seg = 2) in
      let kind, ok, checks =
        if traced then Trace.span "op" (fun () -> step ~traced)
        else step ~traced
      in
      let fin = now () in
      ops :=
        { kind; start = start -. t0; lat = fin -. start; ok; traced; checks }
        :: !ops;
      Atomic.incr completed;
      loop ()
    end
  in
  loop ();
  List.rev !ops

(* Run every op's deferred checks; an op whose check fails is failed. *)
let run_checks ops =
  List.concat_map
    (fun op ->
      List.filter_map
        (fun check ->
          match check () with
          | None -> None
          | Some msg ->
              op.ok <- false;
              Some msg)
        op.checks)
    ops

(* A check that found [n] acknowledged writes missing cannot point at
   the operations that wrote them; fail [n] successful operations of the
   writing kinds instead, so the count is right. *)
let fail_ops ops ~kinds n =
  let left = ref n in
  List.iter
    (fun op ->
      if !left > 0 && op.ok && List.mem op.kind kinds then begin
        op.ok <- false;
        decr left
      end)
    ops

(* ---- metrics -------------------------------------------------------- *)

(* One per-layer figure; [base] names what a ratio was divided by (and
   how large it was), [note] says where the numbers came from. *)
type layer = { l_name : string; l_unit : string; l_value : float; l_note : string }

let layer ?(note = "") l_name l_unit l_value =
  { l_name; l_unit; l_value; l_note = note }

let layer_ratio ?(note = "") l_name (r : Stats.ratio) =
  {
    l_name;
    l_unit = "ratio";
    l_value = r.Stats.value;
    l_note =
      Printf.sprintf "%.6g / %.6g%s" r.Stats.num r.Stats.base
        (if note = "" then "" else "; " ^ note);
  }

type outcome = {
  setup_s : float list;          (* one timing per set-up repetition *)
  window_s : float;
  cpu_s : float;                 (* program CPU time over the window *)
  ops : op list;                 (* every operation of the timed window *)
  check_failures : string list;  (* output / durability mismatches *)
  peak_rss_mb : float;
  stored_bytes : float;
  user_bytes : float;
  extra : (string * string * float) list;  (* printed, not gated *)
  layers : layer list;           (* traced run only *)
  notes : string list;
}

(* ---- Obs registry diffs --------------------------------------------- *)

type reading = { count : int; sum : float }

(* In-process registry: name -> (count, sum). *)
let registry () =
  List.map
    (fun (e : Obs.entry) -> (e.Obs.name, { count = e.Obs.count; sum = e.Obs.sum }))
    (Obs.snapshot ())

(* The server's stats page renders the same registry as a table; sums of
   histograms carry a unit suffix. *)
let parse_stats_page text =
  let seconds v u =
    match u with
    | "s" -> v
    | "ms" -> v /. 1e3
    | "us" -> v /. 1e6
    | "ns" -> v /. 1e9
    | _ -> nan
  in
  List.filter_map
    (fun line ->
      match
        List.filter (( <> ) "") (String.split_on_char ' ' (String.trim line))
      with
      | name :: "counter" :: c :: _ -> (
          match int_of_string_opt c with
          | Some n -> Some (name, { count = n; sum = float_of_int n })
          | None -> None)
      | name :: "histogram" :: c :: "-" :: _ -> (
          match int_of_string_opt c with
          | Some n -> Some (name, { count = n; sum = 0. })
          | None -> None)
      | name :: "histogram" :: c :: v :: u :: _ -> (
          match (int_of_string_opt c, float_of_string_opt v) with
          | Some n, Some x -> Some (name, { count = n; sum = seconds x u })
          | _ -> None)
      | _ -> None)
    (String.split_on_char '\n' text)

let delta before after name =
  let get l = Option.value (List.assoc_opt name l) ~default:{ count = 0; sum = 0. } in
  let a = get after and b = get before in
  { count = a.count - b.count; sum = a.sum -. b.sum }

let dcount before after name = (delta before after name).count

(* Mean of a histogram over the window, in ms. *)
let dmean_ms before after name =
  let d = delta before after name in
  if d.count = 0 then 0. else d.sum /. float_of_int d.count *. 1e3

let hit_ratio before after family =
  let h = dcount before after ("cache." ^ family ^ ".hits")
  and m = dcount before after ("cache." ^ family ^ ".misses") in
  Stats.ratio_i h (h + m)

(* Mean of a float list, 0 when empty (a layer that made no calls). *)
let mean_or_zero = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
