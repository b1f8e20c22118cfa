(* serve-mix: a [Server.Daemon.serve] child process on a Unix socket, in
   its default configuration (128 plans, 4 MiB of results, jobs 1),
   driven by 2 connections in a closed loop.

   Each session loads its own xy catalog (its own seed) and sends
   Zipf(s = 1) picks from a seeded corpus, each text in one of three
   spellings (as generated, re-spaced over several lines, or behind a
   comment) that normalize to the same plan key. About 2% of requests are
   [catalog] reloads of the session's catalog: the writes. Each reload
   makes a new statistics version and flushes every cached result. *)

module J = Engine.Json
module V = Cobj.Value
module Client = Server.Client
module Protocol = Server.Protocol

type size = { texts : int; scale : int }

let full_size = { texts = 400; scale = 100 }
let tiny_size = { texts = 40; scale = 20 }
let conns = 2
let write_frac = 0.02
(* The corpus texts and the session catalogs do not depend on the run
   seed, which draws the request stream: with a corpus drawn per seed, the
   few texts at the head of the Zipf ranking (the top ten take about 45% of
   the requests) decided throughput and latency, which then differed by a
   third from seed to seed; catalogs drawn per seed moved the tail by a
   tenth. *)
let corpus_seed = 42
let corpus sz = Workload.Gen.queries ~count:sz.texts ~seed:corpus_seed ()
let session_seed conn = (corpus_seed * 1000) + conn + 1

(* --- the daemon (child process) -------------------------------------- *)

let daemon_main ~socket ~seed ~scale =
  match Server.Session.catalog_of_name ~name:"xy" ~seed ~scale with
  | Error e -> prerr_endline e; 2
  | Ok catalog ->
    Server.Daemon.serve
      { Server.Daemon.default_config with
        bind = Server.Daemon.Unix_socket socket;
        catalog;
        catalog_name = "xy";
        jobs = 1;
        quiet = true }

type daemon = { pid : int; socket : string; clients : Client.t array }

(* The daemon measured is the one a user starts: verifier and certifier
   off. Without the two variables a daemon launched under [dune exec]
   inherits INSIDE_DUNE and verifies and certifies every compile. *)
let daemon_env () =
  Array.of_list
    ("NESTQL_VERIFY=0" :: "NESTQL_CERTIFY=0"
    :: List.filter
         (fun kv -> not (String.starts_with ~prefix:"NESTQL_" kv))
         (Array.to_list (Unix.environment ())))

let counter = ref 0

let spawn ~sz ~seed =
  incr counter;
  let socket = Printf.sprintf ".bench_out/serve-%d-%d.sock" (Unix.getpid ()) !counter in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process_env exe
      [| exe; "serve"; "--socket"; socket; "--seed"; string_of_int seed;
         "--scale"; string_of_int sz.scale |]
      (daemon_env ()) Unix.stdin Unix.stderr Unix.stderr
  in
  let connect () =
    match Client.connect ~wait_ms:30_000 (Server.Daemon.Unix_socket socket) with
    | Ok c -> c
    | Error e -> failwith ("cannot connect to the daemon: " ^ e)
  in
  { pid; socket; clients = Array.init conns (fun _ -> connect ()) }

let rec wait_exit pid tries =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when tries > 0 -> Unix.sleepf 0.05; wait_exit pid (tries - 1)
  | 0, _ -> Unix.kill pid Sys.sigkill; ignore (Unix.waitpid [] pid)
  | _ -> ()
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let stop d =
  (try ignore (Client.request d.clients.(0) (Client.obj ~op:"shutdown" []))
   with _ -> ());
  Array.iter Client.close d.clients;
  wait_exit d.pid 200;
  if Sys.file_exists d.socket then Sys.remove d.socket

(* --- requests -------------------------------------------------------- *)

type op = Query of int * int  (* corpus index, spelling *) | Reload

let spelling text = function
  | 0 -> text
  | 1 -> "  " ^ String.concat "\n   " (String.split_on_char ' ' text) ^ "\n"
  | _ -> "-- serve-mix\n" ^ text

let catalog_line ~id ~sz cseed =
  Client.obj ~id ~op:"catalog"
    [ ("name", J.String "xy"); ("seed", J.Int cseed); ("scale", J.Int sz.scale) ]

let query_line ~id text = Client.obj ~id ~op:"query" [ ("q", J.String text) ]

(* Zipf(s = 1) over the corpus; rank r is corpus text r (the corpus is
   drawn at random, so its order is as good as any ranking). *)
let zipf_cdf n =
  let w = Array.init n (fun k -> 1. /. float_of_int (k + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map (fun x -> acc := !acc +. (x /. total); !acc) w

let generator ~sz ~seed conn =
  let cdf = zipf_cdf sz.texts in
  let rng = Workload.Prng.create ((seed * 7919) + conn) in
  fun () ->
    if Workload.Prng.bool rng write_frac then Reload
    else
      let u = float_of_int (Workload.Prng.int rng 1_000_000) /. 1e6 in
      let lo = ref 0 and hi = ref (sz.texts - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cdf.(mid) < u then lo := mid + 1 else hi := mid
      done;
      Query (!lo, Workload.Prng.int rng 3)

type record = {
  op : op;
  done_ns : float;  (* completion, from the start of the loop *)
  rtt_ns : float;
  result : (string, string) result;  (* digest of the rendered result *)
  reply_ms : float;
  plan_hit : bool;
  result_hit : bool;
  invalidated : int;
}

let str_member k j = match Protocol.member k j with Some (J.String s) -> s | _ -> ""

let num_member k j =
  match Protocol.member k j with
  | Some (J.Float f) -> f
  | Some (J.Int i) -> float_of_int i
  | _ -> 0.

let parse_reply op ~done_ns rtt_ns = function
  | Error e ->
    { op; done_ns; rtt_ns; result = Error e; reply_ms = 0.; plan_hit = false;
      result_hit = false; invalidated = 0 }
  | Ok json ->
    let ok = Protocol.member "ok" json = Some (J.Bool true) in
    let cache k =
      match Protocol.member "cache" json with
      | Some c -> str_member k c = "hit"
      | None -> false
    in
    let result =
      if not ok then
        Error
          (match Protocol.member "error" json with
          | Some e -> str_member "code" e ^ ": " ^ str_member "message" e
          | None -> "error reply")
      else
        match op with
        | Query _ -> Ok (Digest.string (str_member "result" json))
        | Reload -> Ok ""
    in
    { op; done_ns; rtt_ns; result; reply_ms = num_member "ms" json; plan_hit = cache "plan";
      result_hit = cache "result";
      invalidated = int_of_float (num_member "results_invalidated" json) }

(* One session's closed loop: the next request goes out when the reply
   to the previous one is in. [until i elapsed_ns] ends it. *)
let session ~sz ~seed ?tracer ~t_start client conn until =
  let next = generator ~sz ~seed conn in
  let texts = Array.of_list (corpus sz) in
  let cseed = session_seed conn in
  let rec go i acc =
    if until i (Inproc.elapsed_ns t_start) then List.rev acc
    else begin
      let op = next () in
      let line =
        match op with
        | Query (k, v) -> query_line ~id:i (spelling texts.(k) v)
        | Reload -> catalog_line ~id:i ~sz cseed
      in
      let t0 = Span.now_ns () in
      let reply =
        match tracer with
        | None -> Client.request client line
        | Some tr ->
          Span.op tr (fun () ->
              Span.span tr ~layer:"server" "server.rtt" (fun () ->
                  Client.request client line))
      in
      let rtt = Inproc.elapsed_ns t0 in
      go (i + 1) (parse_reply op ~done_ns:(Inproc.elapsed_ns t_start) rtt reply :: acc)
    end
  in
  go 0 []

(* Set-up: daemon start, each session's catalog, and one untimed warm-up
   pass in which each session sends every corpus text once. *)
let setup ~sz ~seed =
  let d = spawn ~sz ~seed in
  let texts = corpus sz in
  Array.iteri
    (fun conn c ->
      ignore (Client.request c (catalog_line ~id:0 ~sz (session_seed conn)));
      List.iter (fun t -> ignore (Client.request c (query_line ~id:0 t))) texts)
    d.clients;
  d

(* Both sessions in parallel threads; returns each session's records and
   the wall time until both finished. *)
let drive d ~sz ~seed ?tracers until =
  let results = Array.make conns [] in
  let errors = Array.make conns None in
  let t0 = Span.now_ns () in
  let threads =
    Array.init conns (fun conn ->
        Thread.create
          (fun () ->
            try
              let tracer = Option.map (fun t -> t.(conn)) tracers in
              results.(conn) <-
                session ~sz ~seed ?tracer ~t_start:t0 d.clients.(conn) conn (until conn)
            with e -> errors.(conn) <- Some (Printexc.to_string e))
          ())
  in
  Array.iter Thread.join threads;
  let wall = Inproc.elapsed_ns t0 in
  Array.iter (Option.iter failwith) errors;
  (results, wall)

(* Lang.Interp on each session's catalog, regenerated in-process the way
   the daemon builds it. *)
let oracle ~sz =
  let texts = Array.of_list (corpus sz) in
  let memo = Hashtbl.create 1024 in
  let catalogs =
    Array.init conns (fun conn ->
        lazy
          (match
             Server.Session.catalog_of_name ~name:"xy" ~seed:(session_seed conn)
               ~scale:sz.scale
           with
          | Ok c -> c
          | Error e -> failwith e))
  in
  fun conn k ->
    match Hashtbl.find_opt memo (conn, k) with
    | Some d -> d
    | None ->
      let d =
        Inproc.guard (fun () ->
            let v = Oracle.interp (Lazy.force catalogs.(conn)) texts.(k) in
            Ok (Digest.string (Fmt.str "%a" V.pp v)))
      in
      Hashtbl.replace memo (conn, k) d;
      d

let check_records ~sz records =
  let expected = oracle ~sz in
  let texts = Array.of_list (corpus sz) in
  let failures = ref [] in
  Array.iteri
    (fun conn recs ->
      List.iter
        (fun r ->
          let query = match r.op with Query (k, _) -> texts.(k) | Reload -> "catalog reload" in
          let fail m =
            failures :=
              { Report.what = Printf.sprintf "session %d" conn; query; message = m }
              :: !failures
          in
          match r.result, r.op with
          | Error e, _ -> fail e
          | Ok _, Reload -> ()
          | Ok d, Query (k, _) -> (
            match expected conn k with
            | Error e -> fail ("oracle error: " ^ e)
            | Ok e when String.equal d e -> ()
            | Ok _ -> fail "result differs from Lang.Interp"))
        recs)
    records;
  List.rev !failures

let queries_of recs = List.filter (fun r -> match r.op with Query _ -> true | Reload -> false) recs
let writes_of recs = List.filter (fun r -> r.op = Reload) recs
let rtts recs = Array.of_list (List.map (fun r -> r.rtt_ns /. 1e6) recs)

let setups = 5

let run_untraced ~tiny ~seed ~seconds =
  let sz = if tiny then tiny_size else full_size in
  let setup_s = Array.make setups 0. in
  let d = ref None in
  for r = 0 to setups - 1 do
    Option.iter stop !d;
    let t0 = Span.now_ns () in
    d := Some (setup ~sz ~seed);
    setup_s.(r) <- Inproc.elapsed_ns t0 /. 1e9
  done;
  let d = Option.get !d in
  let records, wall =
    try drive d ~sz ~seed (fun _ _ elapsed -> elapsed >= seconds *. 1e9)
    with e -> stop d; raise e
  in
  let rss = Report.rss_peak_mb (string_of_int d.pid) in
  stop d;
  let all = List.concat (Array.to_list records) in
  let q = rtts (queries_of all) and w = rtts (writes_of all) in
  (* per whole second of the run: operations completed and query
     latencies *)
  let nwin = max 1 (int_of_float (wall /. 1e9)) in
  let windows = Array.make nwin 0. and lats = Array.make nwin [] in
  List.iter
    (fun r ->
      let k = int_of_float (r.done_ns /. 1e9) in
      if k < nwin then begin
        windows.(k) <- windows.(k) +. 1.;
        match r.op with
        | Query _ -> lats.(k) <- (r.rtt_ns /. 1e6) :: lats.(k)
        | Reload -> ()
      end)
    all;
  (* the tail of each second, then the median over seconds: pooled, a slow
     stretch in part of the run supplies most of the tail *)
  let tails =
    Array.of_list
      (List.filter_map
         (fun l -> if l = [] then None else Some (Report.tail (Array.of_list l)))
         (Array.to_list lats))
  in
  let tail = Report.median (Array.map (fun (_, v, _) -> v) tails) in
  let p = Report.median (Array.map (fun (p, _, _) -> p) tails) in
  let failures = check_records ~sz records in
  let failed = List.length failures in
  let ops = List.length all in
  let metrics =
    [ Report.metric ~samples:setups "setup_s" "s" (Report.median setup_s);
      Report.metric ~samples:ops
        ~note:
          (let a = Report.sorted windows in
           Printf.sprintf "median of %d one-second windows, %.0f to %.0f" (Array.length a)
             a.(0) a.(Array.length a - 1))
        "throughput_qps" "1/s" (Report.median windows);
      Report.metric ~samples:(Array.length q) "latency_p50_ms" "ms" (Report.median q);
      Report.metric ~samples:(Array.length q)
        ~note:(Printf.sprintf "p%.1f of each second, median of %d seconds" p (Array.length tails))
        "latency_tail_ms" "ms" tail;
      Report.metric ~samples:1 "rss_peak_mb" "MB" rss ]
  in
  { Report.failures; attempted = ops; failed; metrics;
    extra = [ Report.metric ~samples:(Array.length w) "write_latency_p50_ms" "ms" (Report.median w) ] }

(* --- traced run ------------------------------------------------------ *)

let counter_of metrics_reply name =
  match metrics_reply with
  | Ok json -> (
    match Protocol.member "metrics" json with
    | Some m -> (match Protocol.member name m with Some o -> num_member "value" o | None -> 0.)
    | None -> 0.)
  | Error _ -> 0.

(* Round-robin merge of the sessions' operations: the replay's order. *)
let interleave records =
  let rec go acc lists =
    if List.for_all (fun (_, l) -> l = []) lists then List.rev acc
    else
      let acc, rest =
        List.fold_left
          (fun (acc, rest) (conn, l) ->
            match l with
            | [] -> (acc, (conn, []) :: rest)
            | r :: tl -> ((conn, r) :: acc, (conn, tl) :: rest))
          (acc, []) lists
      in
      go acc (List.rev rest)
  in
  go [] (Array.to_list (Array.mapi (fun conn l -> (conn, l)) records))

(* In-process replay of the traced pass through the daemon's own
   request path: decode ([Protocol.request_of_line]), serve
   ([Server.Cache.query] with the daemon's cache sizes) and encode
   ([Protocol.ok]), each in its own span. *)
let replay ~sz tr records =
  let cfg = Server.Daemon.default_config in
  let cache =
    Server.Cache.create ~plan_capacity:cfg.plan_capacity
      ~result_capacity:cfg.result_capacity ()
  in
  let texts = Array.of_list (corpus sz) in
  let load conn =
    Result.get_ok
      (Server.Session.catalog_of_name ~name:"xy" ~seed:(session_seed conn)
         ~scale:sz.scale)
  in
  let catalogs = Array.init conns load in
  let stats = Engine.Stats.create () in
  let span name f = Span.span tr ~layer:"server" name f in
  List.iteri
    (fun i (conn, r) ->
      let line =
        match r.op with
        | Query (k, v) -> query_line ~id:i (spelling texts.(k) v)
        | Reload -> catalog_line ~id:i ~sz (session_seed conn)
      in
      Span.op tr (fun () ->
          match span "server.decode" (fun () -> Protocol.request_of_line line) with
          | Ok { Protocol.id; op = Protocol.Query q } -> (
            match
              span "server.cache_query" (fun () ->
                  Server.Cache.query cache ~cache:q.Protocol.use_cache ~stats ~jobs:1
                    ~bloom:q.Protocol.bloom Core.Pipeline.Decorrelated catalogs.(conn)
                    q.Protocol.q)
            with
            | Ok rep ->
              let outcome o = J.String (Server.Cache.outcome_name o) in
              ignore
                (span "server.encode" (fun () ->
                     Protocol.ok ~id
                       [ ("result", J.String rep.Server.Cache.rendered);
                         ("rows", J.Int rep.rows);
                         ("ms", J.Float 0.);
                         ("strategy", J.String "decorrelated");
                         ("cache", J.Obj [ ("plan", outcome rep.plan); ("result", outcome rep.result) ]) ]))
            | Error _ -> ())
          | Ok { Protocol.id; op = Protocol.Catalog _ } ->
            span "server.catalog" (fun () ->
                catalogs.(conn) <- load conn;
                let dropped = Server.Cache.invalidate_results cache in
                ignore (Protocol.ok ~id [ ("results_invalidated", J.Int dropped) ]))
          | Ok _ | Error _ -> ()))
    (interleave records);
  (stats, Array.to_list (Array.mapi (fun i c -> (string_of_int i, c)) catalogs))

let run_traced ~tiny ~seed ~seconds =
  let sz = if tiny then tiny_size else full_size in
  (* untraced pass on a fresh daemon *)
  let d = setup ~sz ~seed in
  let base, _ =
    try drive d ~sz ~seed (fun _ _ elapsed -> elapsed >= seconds *. 1e9 /. 2.)
    with e -> stop d; raise e
  in
  stop d;
  (* traced pass: a second fresh daemon, the same operations *)
  let tracers = Array.init conns (fun conn -> Span.create ~tid:conn ()) in
  let d = setup ~sz ~seed in
  let traced, metrics_reply =
    try
      let counts = Array.map List.length base in
      let traced, _ = drive d ~sz ~seed ~tracers (fun conn i _ -> i >= counts.(conn)) in
      (traced, Client.request d.clients.(0) (Client.obj ~op:"metrics" []))
    with e -> stop d; raise e
  in
  stop d;
  let failures = ref (check_records ~sz traced) in
  Array.iteri
    (fun conn recs ->
      List.iter2
        (fun b t ->
          match b.result, t.result with
          | Ok x, Ok y when not (String.equal x y) ->
            failures :=
              { Report.what = Printf.sprintf "session %d" conn;
                query = "(traced pass)";
                message = "traced value differs from the untraced run" }
              :: !failures
          | _ -> ())
        recs traced.(conn))
    base;
  let tr = Span.create ~tid:conns () in
  let stats, catalogs = replay ~sz tr traced in
  let all = List.concat (Array.to_list traced) in
  let qs = queries_of all and ws = writes_of all in
  let nq = List.length qs in
  let mean f l = Report.mean (Array.of_list (List.map f l)) in
  let frac p = float_of_int (List.length (List.filter p qs)) /. float_of_int (max 1 nq) in
  let socket = Span.create ~tid:0 () in
  Array.iter (fun t -> Span.merge ~into:socket t) tracers;
  let base_rtt = mean (fun r -> r.rtt_ns) (List.concat (Array.to_list base)) in
  let replayed = tr.Span.ops in
  let per_replay c = float_of_int c /. float_of_int (max 1 replayed) in
  let s = stats in
  let measured =
    [ ("server.rtt_ms", (mean (fun r -> r.rtt_ns /. 1e6) qs, nq));
      ("server.reply_ms", (mean (fun r -> r.reply_ms) qs, nq));
      ("server.transport_ms", (mean (fun r -> (r.rtt_ns /. 1e6) -. r.reply_ms) qs, nq));
      ("server.decode_us", (Span.name_ns tr "server.decode" /. 1e3, replayed));
      ("server.encode_us", (Span.name_ns tr "server.encode" /. 1e3, replayed));
      ("server.cache_query_us", (Span.name_ns tr "server.cache_query" /. 1e3, replayed));
      ("server.write_rtt_ms", (Report.median (rtts ws), List.length ws));
      ("server.plan_hit_ratio", (frac (fun r -> r.plan_hit), nq));
      ("server.result_hit_ratio", (frac (fun r -> r.result_hit), nq));
      ("server.plan_evictions", (counter_of metrics_reply "server.cache.plan.evictions", 1));
      ("server.result_evictions", (counter_of metrics_reply "server.cache.result.evictions", 1));
      ( "server.results_invalidated",
        (float_of_int (List.fold_left (fun a r -> a + r.invalidated) 0 ws), List.length ws) );
      ("cobj.stats_scan_ms", (Inproc.stats_scan_ms catalogs, 3 * conns));
      ("engine.rows_out", (per_replay s.Engine.Stats.rows_out, replayed));
      ("engine.predicate_evals", (per_replay s.predicate_evals, replayed));
      ("engine.hash_builds", (per_replay s.hash_builds, replayed));
      ("engine.hash_probes", (per_replay s.hash_probes, replayed));
      ("engine.applies", (per_replay s.applies, replayed));
      ( "engine.apply_hit_ratio",
        ( (if s.applies + s.apply_hits = 0 then 0.
           else float_of_int s.apply_hits /. float_of_int (s.applies + s.apply_hits)),
          replayed ) );
      ( "engine.bloom_prune_ratio",
        ( (if s.bloom_checks = 0 then 0.
           else float_of_int s.bloom_prunes /. float_of_int s.bloom_checks),
          replayed ) );
      ("server.share", (Span.layer_self_ns socket "server" /. Span.op_ns socket, socket.ops));
      ("obs.unattributed_frac", (Span.layer_self_ns socket "bench" /. Span.op_ns socket, socket.ops));
      ( "obs.trace_overhead_frac",
        ((mean (fun r -> r.rtt_ns) all /. base_rtt) -. 1., List.length all) ) ]
  in
  let path = Printf.sprintf ".bench_out/trace-serve-mix-seed%d.json" seed in
  Span.write path (Array.to_list tracers @ [ tr ]);
  Printf.printf "trace: %s (%d socket operations, %d replayed)\n" path
    (List.length all) replayed;
  let failures = List.rev !failures in
  { Report.failures; attempted = List.length all; failed = List.length failures;
    metrics = Layers.complete measured; extra = [] }
