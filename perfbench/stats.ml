(* Summary statistics for the benchmark harness: the percentile rule,
   ratios reported with their base, metric-name validation and the JSON
   result line. Pure code, unit-tested by [test_stats.ml]. *)

(* A percentile is only reported when at least this many samples lie
   strictly beyond it. *)
let min_beyond = 10

let sorted_copy xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank index of quantile [p] in [n] sorted samples. *)
let rank ~n p =
  let i = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
  max 0 (min (n - 1) i)

let beyond ~n p = n - 1 - rank ~n p

let supported ~n p = n > 0 && beyond ~n p >= min_beyond

(* The tail percentile every run prints (p90), and the fewest operations
   a timed window may close on: enough for that percentile to be
   defined. *)
let window_tail = 0.9

let min_window_ops =
  let rec go n = if supported ~n window_tail then n else go (n + 1) in
  go 1

(* A timed window stays open until [seconds] have passed and at least
   [min_window_ops] operations completed, so a program several times
   slower still reports its p90 (over a longer window)
   instead of failing the run. *)
let window_open ~elapsed ~seconds ~completed =
  elapsed < seconds || completed < min_window_ops

(* [percentile sorted p] is [Some v] only when the sample supports it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if supported ~n p then Some sorted.(rank ~n p) else None

let median sorted =
  let n = Array.length sorted in
  if n = 0 then None else Some sorted.(rank ~n 0.5)

(* Median of an unsorted list; used for repeated set-up timings. *)
let median_list xs =
  match median (sorted_copy (Array.of_list xs)) with
  | Some v -> v
  | None -> nan

(* The highest of a fixed ladder of percentiles the sample supports. *)
let highest_supported sorted =
  List.find_map
    (fun (label, p) ->
      Option.map (fun v -> (label, v)) (percentile sorted p))
    [ ("p999", 0.999); ("p99", 0.99); ("p95", 0.95); ("p90", 0.9) ]

(* A ratio always travels with its base, so "0 of 0" never reads as
   "0 of 1000". A zero base reports 0. *)
type ratio = { num : float; base : float; value : float }

let ratio num base =
  { num; base; value = (if base = 0. then 0. else num /. base) }

let ratio_i num base = ratio (float_of_int num) (float_of_int base)

let ratio_to_string r =
  Printf.sprintf "%.6g (%.6g / %.6g)" r.value r.num r.base

let name_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

(* Metric and workload names: a letter or digit first, then at most 64
   characters of letters, digits, '_', '.' and '-'. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all name_char s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> name_char c || c = '/' || c = '%')
       s

(* First-quarter vs last-quarter median of a time-ordered series, the
   steadiness watch: a workload whose cost drifts within a run shows a
   ratio far from 1. *)
let quarter_drift series =
  let n = Array.length series in
  if n < 8 then None
  else begin
    let q = n / 4 in
    let first = sorted_copy (Array.sub series 0 q)
    and last = sorted_copy (Array.sub series (n - q) q) in
    match (median first, median last) with
    | Some a, Some b -> Some (a, b)
    | _ -> None
  end

(* JSON numbers: every digit as measured; non-finite values are a bug in
   the caller and refused here rather than printed as invalid JSON. *)
let json_number v =
  if not (Float.is_finite v) then invalid_arg "Stats.json_number: not finite"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

type metric = { m_name : string; m_unit : string; m_value : float }

(* The result line: exactly the keys correct / attempted / failed /
   metrics. *)
let result_line ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
      if not (valid_name m.m_name && valid_unit m.m_unit) then
        invalid_arg ("Stats.result_line: bad metric " ^ m.m_name))
    metrics;
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf {|%s: {"value": %s, "unit": %s}|}
              (json_string m.m_name) (json_number m.m_value)
              (json_string m.m_unit))
          metrics))
