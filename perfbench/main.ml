(* The repository benchmark. See perfbench/README.md.

     main.exe run --workload W --seed N --seconds S --trace 0|1
                  [--tiny] [--commit C] [--source D]
     main.exe serve --socket PATH --seed N --scale N   (serve-mix's daemon)

   [run] prints a header naming the measured configuration, one line per
   failing operation, one [metric] line per metric and, last, the JSON
   result object. perfbench/run.py builds this program and calls it. *)

let usage () =
  prerr_endline
    "usage: main.exe run --workload W --seed N --seconds S --trace 0|1 [--tiny]\n\
    \       main.exe serve --socket PATH --seed N --scale N";
  exit 2

let rec flags acc = function
  | "--tiny" :: rest -> flags (("tiny", "1") :: acc) rest
  | k :: v :: rest when String.starts_with ~prefix:"--" k ->
    flags ((String.sub k 2 (String.length k - 2), v) :: acc) rest
  | [] -> acc
  | _ -> usage ()

let get fl k = match List.assoc_opt k fl with Some v -> v | None -> usage ()
let int_flag fl k = match int_of_string_opt (get fl k) with Some n -> n | None -> usage ()

let header ~workload ~seed ~seconds ~trace ~tiny fl =
  let opt k = Option.value (List.assoc_opt k fl) ~default:"unknown" in
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%d size=%s\n"
    workload seed seconds trace (if tiny then "tiny" else "full");
  Printf.printf
    "# config: strategy=decorrelated verify=off certify=off bloom=on(default) \
     vector=%b(default) batch=%d(default) jobs=%d (NESTQL_JOBS ignored)%s\n"
    (Engine.Exec.default_vector ()) (Engine.Exec.default_batch ())
    (match Inproc.find workload with Some w -> w.Inproc.jobs | None -> 1)
    (if workload = "serve-mix" then
       " daemon: plan_cache=128 result_cache=4MiB connections=2 NESTQL_VERIFY=0 \
        NESTQL_CERTIFY=0"
     else "");
  Printf.printf "# commit=%s source=%s\n%!" (opt "commit") (opt "source")

(* The regime each workload was chosen for, checked on the traced run's
   per-layer numbers. A miss is reported, not failed: it describes the
   program, not a wrong result. *)
let regime workload metrics =
  let v name =
    match List.find_opt (fun m -> m.Report.name = name) metrics with
    | Some m -> m.Report.value
    | None -> nan
  in
  let line what value ok =
    Printf.printf "regime %-14s %-52s %8.4f  %s\n" workload what value
      (if ok then "ok" else "NOT MET")
  in
  let within lo hi x = lo < x && x < hi in
  line "unattributed self time <= 0.10 of op wall" (v "obs.unattributed_frac")
    (v "obs.unattributed_frac" <= 0.10);
  match workload with
  | "compile-corpus" ->
    let x = v "lang.share" +. v "core.share" in
    line "lang + core share >= 0.40" x (x >= 0.40)
  | "nest-scale" -> line "engine share >= 0.90" (v "engine.share") (v "engine.share" >= 0.90)
  | "apply-deep" ->
    line "engine.applies > 0" (v "engine.applies") (v "engine.applies" > 0.);
    line "Apply subtree share of execution >= 0.5" (v "engine.apply_subtree_share")
      (v "engine.apply_subtree_share" >= 0.5)
  | _ ->
    line "0 < plan hit ratio < 1" (v "server.plan_hit_ratio")
      (within 0. 1. (v "server.plan_hit_ratio"));
    line "0 < result hit ratio < 1" (v "server.result_hit_ratio")
      (within 0. 1. (v "server.result_hit_ratio"));
    line "results invalidated > 0" (v "server.results_invalidated")
      (v "server.results_invalidated" > 0.)

let run fl =
  let workload = get fl "workload" in
  let seed = int_flag fl "seed" and trace = int_flag fl "trace" in
  let seconds = float_of_int (int_flag fl "seconds") in
  let tiny = List.mem_assoc "tiny" fl in
  if trace <> 0 && trace <> 1 then usage ();
  if not (Sys.file_exists ".bench_out") then Sys.mkdir ".bench_out" 0o755;
  let run =
    match workload, Inproc.find workload, trace with
    | "serve-mix", _, 0 -> Serve.run_untraced
    | "serve-mix", _, _ -> Serve.run_traced
    | _, Some w, 0 -> Inproc.run_untraced w
    | _, Some w, _ -> Inproc.run_traced w ~name:workload
    | _, None, _ -> usage ()
  in
  header ~workload ~seed ~seconds ~trace ~tiny fl;
  let o = run ~tiny ~seed ~seconds in
  Report.print_failures ~workload ~seed o.Report.failures;
  if trace = 1 then regime workload o.metrics;
  let fail_frac = float_of_int o.failed /. float_of_int (max 1 o.attempted) in
  Report.print_extra
    (Report.metric ~samples:o.attempted "fail_frac" "ratio" fail_frac :: o.extra);
  Report.print ~correct:(o.failures = []) ~attempted:(max 1 o.attempted) ~failed:o.failed
    o.metrics

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Array.to_list Sys.argv with
  | _ :: "serve" :: rest ->
    let fl = flags [] rest in
    exit
      (Serve.daemon_main ~socket:(get fl "socket") ~seed:(int_flag fl "seed")
         ~scale:(int_flag fl "scale"))
  | _ :: "run" :: rest -> run (flags [] rest)
  | _ -> usage ()
