(* In-memory spans around every call the benchmark makes into the
   program. Spans of one client operation share an op id; a span's self
   time is its duration minus the time covered by its children. Nothing
   is recorded unless [set_enabled true]; the spans are written out once,
   when the run ends. *)

module Stats = Perfbench_stats.Stats

type span = {
  id : int;
  parent : int;  (* 0 = root *)
  op : int;
  name : string;
  start_s : float;
  dur_s : float;
  mutable child_s : float;
}

let enabled = Atomic.make false
let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled
let next_id = Atomic.make 1
let lock = Mutex.create ()
let spans : span list ref = ref []

(* Per-thread stack of open spans (client sessions run on their own
   threads). *)
let stacks : (int, span list) Hashtbl.t = Hashtbl.create 4

let get_stack () =
  Mutex.protect lock (fun () ->
      Option.value (Hashtbl.find_opt stacks (Thread.id (Thread.self ()))) ~default:[])

let set_stack l =
  Mutex.protect lock (fun () -> Hashtbl.replace stacks (Thread.id (Thread.self ())) l)

let now = Genalg_obs.Obs.now_s

let span name f =
  if not (is_enabled ()) then f ()
  else begin
    let parent_span = match get_stack () with p :: _ -> Some p | [] -> None in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent, op =
      match parent_span with Some p -> (p.id, p.op) | None -> (0, id)
    in
    let s =
      { id; parent; op; name; start_s = now (); dur_s = 0.; child_s = 0. }
    in
    set_stack (s :: get_stack ());
    let finish () =
      let s = { s with dur_s = now () -. s.start_s } in
      (match get_stack () with _ :: rest -> set_stack rest | [] -> ());
      (match parent_span with
      | Some p -> p.child_s <- p.child_s +. s.dur_s
      | None -> ());
      Mutex.protect lock (fun () -> spans := s :: !spans)
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* A span's recorded copy is taken when it closes, so children (which
   close first) have already added into the open record; the copy made
   at close carries the final child total. *)
let self_s s = Float.max 0. (s.dur_s -. s.child_s)

type summary = { s_name : string; count : int; total_s : float; self_total_s : float }

let summary () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let c, t, st =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0., 0.)
      in
      Hashtbl.replace tbl s.name (c + 1, t +. s.dur_s, st +. self_s s))
    !spans;
  Hashtbl.fold
    (fun s_name (count, total_s, self_total_s) acc ->
      { s_name; count; total_s; self_total_s } :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.s_name b.s_name)

let write path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%s,\"start_s\":%.9f,\"dur_s\":%.9f,\"self_s\":%.9f}\n"
        s.id s.parent s.op (Stats.json_string s.name) s.start_s s.dur_s
        (self_s s))
    (List.rev !spans)
