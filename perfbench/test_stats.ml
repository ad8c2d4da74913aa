(* Unit tests for the benchmark's own statistics: the percentile rule
   (at least ten samples beyond), the timed window's minimum operation
   count, ratios with their base, the metric-name and unit charsets, and
   the result line. *)

module Stats = Perfbench_stats.Stats

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let samples n = Array.init n (fun i -> float_of_int (i + 1))

let () =
  (* nearest rank: p50 of 1..100 is 50, with 50 samples beyond *)
  check "median of 1..100" (Stats.median (samples 100) = Some 50.);
  check "beyond p50 of 100" (Stats.beyond ~n:100 0.5 = 50);
  (* p90 needs 100 samples: rank 90 leaves exactly 10 beyond *)
  check "p90 at n=100" (Stats.percentile (samples 100) 0.9 = Some 90.);
  check "p90 refused at n=99" (Stats.percentile (samples 99) 0.9 = None);
  (* p99 needs 1000 samples *)
  check "p99 at n=1000" (Stats.percentile (samples 1000) 0.99 = Some 990.);
  check "p99 refused at n=999" (Stats.percentile (samples 999) 0.99 = None);
  check "p95 at n=200" (Stats.percentile (samples 200) 0.95 = Some 190.);
  check "p95 refused at n=199" (Stats.percentile (samples 199) 0.95 = None);
  check "empty sample" (Stats.median [||] = None && Stats.percentile [||] 0.5 = None);
  check "highest supported at n=500"
    (Stats.highest_supported (samples 500) = Some ("p95", 475.));
  check "highest supported at n=50" (Stats.highest_supported (samples 50) = None);
  check "median_list unsorted" (Stats.median_list [ 3.; 1.; 2. ] = 2.);
  (* the timed window: it closes on exactly enough operations for the
     printed tail percentile, however slow each operation is *)
  let n = Stats.min_window_ops in
  check "min_window_ops supports the printed tail"
    (Stats.supported ~n Stats.window_tail
    && not (Stats.supported ~n:(n - 1) Stats.window_tail));
  let window ~seconds ~op_s =
    (* a closed loop on a simulated clock, each operation taking [op_s] *)
    let clock = ref 0. and lats = ref [] in
    while Stats.window_open ~elapsed:!clock ~seconds ~completed:(List.length !lats) do
      clock := !clock +. op_s;
      lats := (op_s *. float_of_int (1 + (List.length !lats mod 7))) :: !lats
    done;
    (!clock, Stats.sorted_copy (Array.of_list !lats))
  in
  let elapsed, slow = window ~seconds:1. ~op_s:0.25 in
  check "slow window stays open for enough operations"
    (Array.length slow = n && elapsed > 1.);
  check "slow window defines its p50 and p90"
    (Stats.median slow <> None && Stats.percentile slow Stats.window_tail <> None);
  check "slow window still gives a result line"
    (match
       Stats.result_line ~correct:true ~attempted:(Array.length slow) ~failed:0
         [
           { Stats.m_name = "throughput_ops_s"; m_unit = "1/s";
             m_value = float_of_int (Array.length slow) /. elapsed };
           { Stats.m_name = "p90_ms"; m_unit = "ms";
             m_value = Option.get (Stats.percentile slow Stats.window_tail) };
         ]
     with
    | line -> String.length line > 0
    | exception _ -> false);
  let elapsed, fast = window ~seconds:1. ~op_s:0.001 in
  check "fast window closes on time"
    (Array.length fast > n && elapsed >= 1. && elapsed < 1.002);
  (* ratios keep their base; a zero base reads 0, never nan *)
  let r = Stats.ratio_i 3 4 in
  check "ratio value" (r.Stats.value = 0.75 && r.Stats.num = 3. && r.Stats.base = 4.);
  let z = Stats.ratio_i 0 0 in
  check "zero base" (z.Stats.value = 0. && z.Stats.base = 0.);
  check "ratio text carries base" (Stats.ratio_to_string r = "0.75 (3 / 4)");
  (* names *)
  List.iter
    (fun n -> check ("valid name " ^ n) (Stats.valid_name n))
    [ "p50_ms"; "serve.stmt_ms"; "sqlx.exec_ms.group_by"; "etl-refresh"; "0x" ];
  List.iter
    (fun n -> check ("invalid name " ^ n) (not (Stats.valid_name n)))
    [ ""; "_x"; ".x"; "a b"; "a/b"; "é"; String.make 65 'a' ];
  check "64-char name" (Stats.valid_name (String.make 64 'a'));
  List.iter
    (fun u -> check ("valid unit " ^ u) (Stats.valid_unit u))
    [ "ms"; "s"; "1/s"; "count"; "%"; "MiB" ];
  check "invalid unit" (not (Stats.valid_unit "m s"));
  check "long unit" (not (Stats.valid_unit (String.make 17 'a')));
  (* drift: first vs last quarter medians *)
  check "drift"
    (Stats.quarter_drift (Array.init 16 float_of_int) = Some (1., 13.));
  check "drift needs 8 samples" (Stats.quarter_drift [| 1.; 2. |] = None);
  (* JSON *)
  check "json number keeps digits" (Stats.json_number 0.1234567891234 = "0.1234567891234");
  check "json integer" (Stats.json_number 3. = "3.0");
  check "json refuses nan"
    (match Stats.json_number nan with _ -> false | exception Invalid_argument _ -> true);
  check "result line"
    (Stats.result_line ~correct:true ~attempted:2 ~failed:0
       [ { Stats.m_name = "p50_ms"; m_unit = "ms"; m_value = 1.5 } ]
    = {|{"correct": true, "attempted": 2, "failed": 0, "metrics": {"p50_ms": {"value": 1.5, "unit": "ms"}}}|});
  check "result line refuses bad names"
    (match
       Stats.result_line ~correct:true ~attempted:1 ~failed:0
         [ { Stats.m_name = "bad name"; m_unit = "ms"; m_value = 1. } ]
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  if !failures > 0 then exit 1 else print_endline "perfbench stats: all tests passed"
