(* Sample statistics and the benchmark's output: one human-readable
   [metric] line per metric (name, value, unit, sample count), failure
   lines naming the seed and the query, and, as the last line, the JSON
   object the harness reads. *)

type metric = {
  name : string;
  value : float;
  unit : string;
  samples : int;
  note : string;
}

let metric ?(note = "") ~samples name unit value =
  { name; value; unit; samples; note }

(* A growable array of unboxed floats: per-operation latencies of a run
   stay small, so the peak memory the benchmark reports for itself does
   not grow with the number of operations a run completes. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let contents s = Array.sub s.data 0 s.len

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array, p in [0, 100]. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile (sorted xs) 50.

let mean xs =
  if Array.length xs = 0 then 0.
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* The highest percentile with at least ten samples beyond it, capped at
   p99 (past it a single scheduler hiccup decides the value) and floored
   at the median (below twenty samples nothing higher qualifies). Returns
   the percentile, its value and how many samples lie beyond it. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  let p = 100. *. float_of_int (n - 10) /. float_of_int (max n 1) in
  let p = Float.max 50. (Float.min 99. p) in
  let p = Float.of_int (int_of_float (p *. 10.)) /. 10. in
  let v = percentile a p in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  (p, v, n - max rank 1)

let rss_peak_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        else go ()
    in
    let v = go () in
    close_in ic;
    v

type failure = { what : string; query : string; message : string }

(* What a run reports: failures (printed), operations attempted and
   failed, the metrics of the JSON result and [extra] metrics printed
   only. *)
type outcome = {
  failures : failure list;
  attempted : int;
  failed : int;
  metrics : metric list;
  extra : metric list;
}

let max_failure_lines = 20

let print_failures ~workload ~seed failures =
  List.iteri
    (fun i f ->
      if i < max_failure_lines then
        Printf.printf "FAIL workload=%s seed=%d %s query=%S: %s\n" workload
          seed f.what f.query f.message)
    failures;
  let n = List.length failures in
  if n > max_failure_lines then
    Printf.printf "FAIL ... %d more failures not shown\n" (n - max_failure_lines)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let print_line m =
  Printf.printf "metric %-28s %14.6g %-6s n=%d%s\n" m.name m.value m.unit
    m.samples
    (if m.note = "" then "" else "  " ^ m.note)

(* Metrics printed for the reader but not part of the JSON result:
   fail_frac (carried there as [attempted] and [failed]) and
   write_latency_p50_ms (serve-mix only). *)
let print_extra = List.iter print_line

let print ~correct ~attempted ~failed metrics =
  List.iter print_line metrics;
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number m.value) m.unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " fields)
