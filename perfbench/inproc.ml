(* The in-process workloads: compile-corpus, nest-scale and apply-deep.

   One caller runs a closed loop over the workload's queries in a fixed
   order (whole rounds, so every run measures the same mix). One
   operation is the library path a client of the library takes:
   [Lang.Parser] → [Pipeline.compile] → [Pipeline.execute], in the
   production configuration (strategy decorrelated, verifier and
   certifier off, Bloom filtering and the vector engine at their
   defaults, [jobs] passed explicitly). *)

module P = Core.Pipeline
module V = Cobj.Value
module G = Workload.Gen

type qspec = {
  label : string;
  text : string;
  on : string;  (* catalog name *)
  reference : (Cobj.Catalog.t -> V.t) option;
      (* computed directly from the tables; [None]: Lang.Interp *)
}

type workload = {
  jobs : int;
  full_n : int;  (* rows per table *)
  tiny_n : int;  (* the self-test's size *)
  reduced_n : int option;  (* Lang.Interp cross-check size, when the full
                              size is out of the interpreter's reach *)
  catalogs : n:int -> seed:int -> (string * Cobj.Catalog.t) list;
  queries : tiny:bool -> seed:int -> qspec list;
}

let xy ~n ~key_dom ~dangling ~seed =
  G.xy { G.default_xy with nx = n; ny = n; key_dom; dangling; seed }

let compile_corpus =
  {
    jobs = 1;
    full_n = 16;
    tiny_n = 16;
    reduced_n = None;
    catalogs =
      (fun ~n ~seed -> [ ("xy", xy ~n ~key_dom:4 ~dangling:0.1 ~seed) ]);
    queries =
      (fun ~tiny ~seed ->
        List.mapi
          (fun i text ->
            { label = Printf.sprintf "corpus#%d" i; text; on = "xy"; reference = None })
          (G.queries ~count:(if tiny then 40 else 4000) ~seed ()));
  }

let nest_scale =
  let family label on text reference = { label; text; on; reference = Some reference } in
  let xy_family label text f = family label "xy" text (Oracle.ref_xy_family f) in
  {
    jobs = 2;
    full_n = 20_000;
    tiny_n = 2_000;
    reduced_n = Some 60;
    catalogs =
      (fun ~n ~seed ->
        let base = { G.default_xy with nx = n; ny = n; key_dom = max 1 (n / 4); seed } in
        [ ("xy", G.xy base);
          ("xyz", G.xyz { G.base; nz = n; z_key_dom = max 1 (n / 4) }) ]);
    queries =
      (fun ~tiny:_ ~seed:_ ->
        [ xy_family "in"
            "SELECT x.id FROM X x WHERE x.a IN (SELECT y.a FROM Y y WHERE x.b = y.b)"
            `In;
          xy_family "not-in"
            "SELECT x.id FROM X x WHERE x.a NOT IN (SELECT y.a FROM Y y WHERE x.b = y.b)"
            `Not_in;
          xy_family "count-zero"
            "SELECT x.id FROM X x WHERE COUNT(SELECT y.id FROM Y y WHERE y.b = x.b) = 0"
            `Count_zero;
          xy_family "subseteq"
            "SELECT x.id FROM X x WHERE x.s SUBSETEQ (SELECT y.a FROM Y y WHERE y.b = x.b)"
            `Subseteq;
          xy_family "select-nest"
            "SELECT (i = x.id, ys = (SELECT y.a FROM Y y WHERE y.b = x.b)) FROM X x"
            `Select_nest;
          xy_family "select-sum"
            "SELECT (i = x.id, v = SUM(SELECT y.a FROM Y y WHERE y.b = x.b)) FROM X x"
            `Select_sum;
          family "section8" "xyz"
            "SELECT x FROM X x WHERE x.a SUBSETEQ (SELECT y.a FROM Y y WHERE x.b = \
             y.b AND y.c SUBSETEQ (SELECT z.c FROM Z z WHERE y.d = z.d))"
            Oracle.ref_section8 ]);
  }

let apply_deep =
  let deep label text shape =
    { label; text; on = "xy"; reference = Some (Oracle.ref_apply_deep shape) }
  in
  {
    jobs = 2;
    full_n = 2_000;
    tiny_n = 200;
    reduced_n = Some 100;
    catalogs =
      (fun ~n ~seed -> [ ("xy", xy ~n ~key_dom:(max 1 (n / 4)) ~dangling:0.2 ~seed) ]);
    queries =
      (fun ~tiny:_ ~seed:_ ->
        [ deep "ws-eq"
            "SELECT (i = x.id, ys = (SELECT (a = y.a, ws = (SELECT w.a FROM Y w \
             WHERE w.b = x.b AND w.a = y.a)) FROM Y y WHERE y.b = x.b)) FROM X x"
            `Ws_eq;
          deep "sum-counts"
            "SELECT (i = x.id, n = SUM(SELECT COUNT(SELECT w.id FROM Y w WHERE \
             w.a = y.a AND w.b = x.b) FROM Y y WHERE y.b = x.b)) FROM X x"
            `Sum_counts;
          deep "ws-lt"
            "SELECT (i = x.id, ys = (SELECT (b = y.id, ws = (SELECT w.id FROM Y w \
             WHERE w.b = x.b AND w.a < y.a)) FROM Y y WHERE y.b = x.b)) FROM X x"
            `Ws_lt ]);
  }

let find = function
  | "compile-corpus" -> Some compile_corpus
  | "nest-scale" -> Some nest_scale
  | "apply-deep" -> Some apply_deep
  | _ -> None

(* --- one operation --------------------------------------------------- *)

type query = { spec : qspec; catalog : Cobj.Catalog.t }

let guard f = try f () with e -> Error (Printexc.to_string e)

let run_plain ~jobs q =
  guard (fun () ->
      match Lang.Parser.expr_result q.spec.text with
      | Error e -> Error ("parse error: " ^ e)
      | Ok expr -> (
        match P.compile ~verify:false ~certify:false P.Decorrelated q.catalog expr with
        | Error e -> Error ("compile error: " ^ e)
        | Ok c -> Ok (c, P.execute ~jobs q.catalog c)))

(* The options [Pipeline.compile] plans decorrelated queries with. *)
let planner_options = { Core.Planner.default_options with memo_applies = true }

let rec apply_nodes (p : Engine.Physical.t) =
  let own = match p with Engine.Physical.Apply_op _ -> 1 | _ -> 0 in
  List.fold_left (fun n c -> n + apply_nodes c) own (Engine.Analyze.children p)

type traced = {
  value : V.t;
  physical : Engine.Physical.query;
  rounds : int;
  stats : Engine.Stats.t;
  minor_words : float;
  major_gcs : int;
}

(* The same operation, compiled stage by stage exactly as
   [Pipeline.compile] does for the decorrelated strategy (typecheck,
   translate, up to five rounds of decorrelate / simplify / rewrite /
   reorder until a fixpoint, plan), with a span around each call. *)
let run_traced tr ~jobs q =
  let sp layer name f = Span.span tr ~layer name f in
  let cat = q.catalog in
  let ( let* ) = Result.bind in
  Span.op tr (fun () ->
      guard (fun () ->
          let* expr = sp "lang" "lang.parse" (fun () -> Lang.Parser.expr_result q.spec.text) in
          let* resolved, _ =
            sp "lang" "lang.typecheck" (fun () -> Lang.Types.check_query cat expr)
            |> Result.map_error (Fmt.str "%a" Lang.Types.pp_error)
          in
          let* naive = sp "core" "core.translate" (fun () -> Core.Translate.query cat resolved) in
          let rounds = ref 0 in
          let rec fixpoint n lq =
            if n = 0 then lq
            else begin
              incr rounds;
              let lq' = sp "core" "core.decorrelate" (fun () -> Core.Decorrelate.query lq) in
              let lq' = sp "core" "core.simplify" (fun () -> Core.Simplify.query cat lq') in
              let lq' = sp "core" "core.rewrite" (fun () -> Core.Rewrite.query lq') in
              let lq' = sp "core" "core.reorder" (fun () -> Core.Reorder.query cat lq') in
              if lq' = lq then lq else fixpoint (n - 1) lq'
            end
          in
          let lq = fixpoint 5 naive in
          let physical =
            sp "core" "core.plan" (fun () -> Core.Planner.query ~options:planner_options cat lq)
          in
          let compiled =
            { P.source = resolved; logical = Some lq; physical = Some physical;
              shredded = None; strategy = P.Decorrelated }
          in
          let stats = Engine.Stats.create () in
          let g0 = Gc.quick_stat () in
          let value = sp "engine" "engine.execute" (fun () -> P.execute ~stats ~jobs cat compiled) in
          let g1 = Gc.quick_stat () in
          Ok
            { value; physical; rounds = !rounds; stats;
              minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
              major_gcs = g1.Gc.major_collections - g0.Gc.major_collections }))

(* --- setup, loop and oracle ------------------------------------------ *)

let setup w ~tiny ~seed =
  let n = if tiny then w.tiny_n else w.full_n in
  let catalogs = w.catalogs ~n ~seed in
  let queries =
    Array.of_list
      (List.map (fun spec -> { spec; catalog = List.assoc spec.on catalogs })
         (w.queries ~tiny ~seed))
  in
  (* the untimed warm-up pass of the set-up *)
  Array.iter (fun q -> ignore (run_plain ~jobs:w.jobs q)) queries;
  (queries, catalogs)

(* Expected result digests, computed on first use and never inside a
   timed interval. *)
let expectations queries =
  Array.map
    (fun q ->
      lazy
        (guard (fun () ->
             let v =
               match q.spec.reference with
               | Some f -> f q.catalog
               | None -> Oracle.interp q.catalog q.spec.text
             in
             Ok (Oracle.digest v))))
    queries

let check expected i value =
  match Lazy.force expected.(i) with
  | Error m -> Some ("oracle error: " ^ m)
  | Ok d when String.equal d (Oracle.digest value) -> None
  | Ok _ -> Some "result differs from the oracle"

let elapsed_ns t0 = Int64.to_float (Int64.sub (Span.now_ns ()) t0)

(* Closed loop over whole rounds of [n] operations until
   [stop ~rounds ~busy_ns] holds between rounds. [op i] is timed;
   [after i r] (the oracle) is not. Returns per-operation latencies and
   the timed work of each round. *)
let loop ~stop n op after =
  let lat = Report.samples () and busy_ns = ref 0. and per_round = ref [] in
  while not (stop ~rounds:(List.length !per_round) ~busy_ns:!busy_ns) do
    let round = ref 0. in
    for i = 0 to n - 1 do
      let t0 = Span.now_ns () in
      let r = op i in
      let dt = elapsed_ns t0 in
      Report.push lat dt;
      round := !round +. dt;
      after i r
    done;
    busy_ns := !busy_ns +. !round;
    per_round := !round :: !per_round
  done;
  (Report.contents lat, Array.of_list (List.rev !per_round))

let for_ns budget ~rounds:_ ~busy_ns = busy_ns >= budget
let sum = Array.fold_left ( +. ) 0.

let failure q message = { Report.what = q.spec.label; query = q.spec.text; message }

(* Lang.Interp on a reduced-scale copy of the catalogs: it must agree
   with the direct reference and with the engine. *)
let reduced_failures w ~seed =
  match w.reduced_n with
  | None -> []
  | Some n ->
    let catalogs = w.catalogs ~n ~seed in
    List.filter_map
      (fun spec ->
        let q = { spec; catalog = List.assoc spec.on catalogs } in
        let msg =
          match guard (fun () -> Ok (Oracle.interp q.catalog spec.text)) with
          | Error e -> Some ("Lang.Interp failed: " ^ e)
          | Ok expected -> (
            match spec.reference with
            | Some f when not (V.equal (f q.catalog) expected) ->
              Some "direct reference disagrees with Lang.Interp"
            | _ -> (
              match run_plain ~jobs:w.jobs q with
              | Ok (_, v) when V.equal v expected -> None
              | Ok _ -> Some "engine disagrees with Lang.Interp"
              | Error e -> Some e))
        in
        Option.map
          (fun m -> { (failure q m) with what = spec.label ^ " (reduced scale)" })
          msg)
      (w.queries ~tiny:false ~seed)

let setups = 5

let ms ns = ns /. 1e6

let run_untraced w ~tiny ~seed ~seconds =
  let setup_s = Array.make setups 0. in
  let last = ref None in
  for r = 0 to setups - 1 do
    last := None;
    Gc.compact ();
    let t0 = Span.now_ns () in
    last := Some (setup w ~tiny ~seed);
    setup_s.(r) <- elapsed_ns t0 /. 1e9
  done;
  let queries, _ = Option.get !last in
  let expected = expectations queries in
  let failures = ref [] in
  let lat, per_round =
    loop ~stop:(for_ns (seconds *. 1e9)) (Array.length queries)
      (fun i -> run_plain ~jobs:w.jobs queries.(i))
      (fun i r ->
        let problem =
          match r with Error e -> Some e | Ok (_, v) -> check expected i v
        in
        Option.iter (fun m -> failures := failure queries.(i) m :: !failures) problem)
  in
  let rss = Report.rss_peak_mb "self" in
  let nq = Array.length queries in
  if nq <= 16 then
    Array.iteri
      (fun i q ->
        let mine = Array.init (Array.length lat / nq) (fun r -> lat.((r * nq) + i)) in
        Printf.printf "query %-12s n=%d p50=%.3f ms\n" q.spec.label (Array.length mine)
          (ms (Report.median mine)))
      queries;
  let reduced = reduced_failures w ~seed in
  let rates = Report.sorted (Array.map (fun ns -> float_of_int nq /. (ns /. 1e9)) per_round) in
  let ops = Array.length lat in
  let p, tail, beyond = Report.tail lat in
  let failed = List.length !failures in
  let metrics =
    [ Report.metric ~samples:setups "setup_s" "s" (Report.median setup_s);
      (* the median over rounds, so that a few seconds of a slower
         machine move it less than they move the mean *)
      Report.metric ~samples:ops
        ~note:
          (Printf.sprintf "median of %d rounds, %.4g to %.4g" (Array.length rates)
             rates.(0) rates.(Array.length rates - 1))
        "throughput_qps" "1/s" (Report.percentile rates 50.);
      Report.metric ~samples:ops "latency_p50_ms" "ms" (ms (Report.median lat));
      Report.metric ~samples:ops
        ~note:(Printf.sprintf "p%.1f, %d samples beyond" p beyond)
        "latency_tail_ms" "ms" (ms tail);
      Report.metric ~samples:1 "rss_peak_mb" "MB" rss ]
  in
  { Report.failures = List.rev_append !failures reduced; attempted = ops; failed; metrics;
    extra = [] }

(* --- traced run ------------------------------------------------------ *)

let profile_rows w queries =
  (* one instrumented execution per distinct query, outside every timed
     interval: operator self times and vectorized coverage *)
  Array.to_list queries
  |> List.filter_map (fun q ->
         match run_plain ~jobs:w.jobs q with
         | Error _ -> None
         | Ok (c, _) -> (
           match P.analyze ~jobs:w.jobs q.catalog c with
           | Error _ -> None
           | Ok (_, tree) ->
             let total = ref 0 and vec = ref 0 in
             let rec walk (n : Engine.Stats.node) =
               incr total;
               if n.Engine.Stats.vectorized then incr vec;
               List.iter walk n.Engine.Stats.children
             in
             walk tree;
             (* time of the Apply operators and the correlated
                subqueries they evaluate: an Apply node's inclusive time
                minus that of its input, its first child *)
             let rec apply_ns (n : Engine.Stats.node) =
               match n.Engine.Stats.op, n.Engine.Stats.children with
               | op, input :: _ when String.starts_with ~prefix:"apply" op ->
                 Int64.to_float (Int64.sub n.Engine.Stats.time_ns input.Engine.Stats.time_ns)
                 +. apply_ns input
               | _, children -> List.fold_left (fun a c -> a +. apply_ns c) 0. children
             in
             Some
               ( (Engine.Profile.of_node tree).Engine.Profile.rows,
                 float_of_int !vec /. float_of_int (max 1 !total),
                 apply_ns tree /. Float.max 1. (Int64.to_float tree.Engine.Stats.time_ns) )))

let hot_lines profiles =
  let rows = List.concat_map (fun (rows, _, _) -> rows) profiles in
  let rows =
    List.sort
      (fun (a : Engine.Profile.row) b -> Int64.compare b.self_ns a.self_ns)
      rows
  in
  List.iteri
    (fun i (r : Engine.Profile.row) ->
      if i < 8 then
        Printf.printf "hot-op %d: %.3f ms self  %s %s\n" (i + 1)
          (Int64.to_float r.self_ns /. 1e6) r.op r.detail)
    rows

let stats_scan_ms catalogs =
  List.fold_left
    (fun acc (_, c) ->
      let samples =
        Array.init 3 (fun _ ->
            let t0 = Span.now_ns () in
            ignore (Cobj.Stats.scan c);
            elapsed_ns t0)
      in
      acc +. ms (Report.median samples))
    0. catalogs

let run_traced w ~name ~tiny ~seed ~seconds =
  let queries, catalogs = setup w ~tiny ~seed in
  let n = Array.length queries in
  let expected = expectations queries in
  let failures = ref [] and failed_ops = ref 0 and op_failed = ref false in
  let fail i m =
    failures := failure queries.(i) m :: !failures;
    op_failed := true
  in
  (* untraced pass: the reference values, plans and wall time *)
  let base_digest = Hashtbl.create 1024 and base_plan = Array.make n "" in
  let op_index = ref 0 in
  let _, base_rounds =
    loop ~stop:(for_ns (seconds *. 1e9 /. 2.)) n
      (fun i -> run_plain ~jobs:w.jobs queries.(i))
      (fun i r ->
        (match r with
        | Ok (c, v) ->
          Hashtbl.replace base_digest !op_index (Oracle.digest v);
          if base_plan.(i) = "" then
            base_plan.(i) <-
              Fmt.str "%a" Engine.Physical.pp_query (Option.get c.P.physical)
        | Error _ -> ());
        incr op_index)
  in
  (* traced pass: the same operations in the same order *)
  let tr = Span.create ~tid:0 () in
  let stats = Engine.Stats.create () in
  let fixpoint_rounds = ref 0 and apply_nodes_sum = ref 0 and minor_words = ref 0. and major_gcs = ref 0 in
  let skews = ref [] in
  op_index := 0;
  let plan_checked = Array.make n false in
  let lat, traced_rounds =
    loop ~stop:(fun ~rounds ~busy_ns:_ -> rounds = Array.length base_rounds) n
      (fun i -> run_traced tr ~jobs:w.jobs queries.(i))
      (fun i r ->
        op_failed := false;
        (match r with
        | Error e -> fail i e
        | Ok t ->
          if not plan_checked.(i) then begin
            plan_checked.(i) <- true;
            if Fmt.str "%a" Engine.Physical.pp_query t.physical <> base_plan.(i) then
              fail i "stage-by-stage plan differs from Pipeline.compile's"
          end;
          (match Hashtbl.find_opt base_digest !op_index with
          | Some d when String.equal d (Oracle.digest t.value) -> ()
          | _ -> fail i "traced value differs from the untraced run");
          Option.iter (fail i) (check expected i t.value);
          Engine.Stats.add ~into:stats t.stats;
          let s = t.stats in
          if s.Engine.Stats.partitions > 0 && s.Engine.Stats.hash_builds > 0 then
            skews :=
              float_of_int (s.partition_max_rows * s.partitions)
              /. float_of_int s.hash_builds
              :: !skews;
          fixpoint_rounds := !fixpoint_rounds + t.rounds;
          apply_nodes_sum := !apply_nodes_sum + apply_nodes t.physical.Engine.Physical.plan;
          minor_words := !minor_words +. t.minor_words;
          major_gcs := !major_gcs + t.major_gcs);
        if !op_failed then incr failed_ops;
        incr op_index)
  in
  let ops = Array.length lat in
  let count c = float_of_int c /. float_of_int (max 1 ops) in
  let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b) in
  let profiles = profile_rows w queries in
  hot_lines profiles;
  let fam_ms f =
    List.fold_left
      (fun acc (rows, _, _) ->
        List.fold_left
          (fun acc (r : Engine.Profile.row) ->
            if Layers.family r.op = f then acc +. (Int64.to_float r.self_ns /. 1e6) else acc)
          acc rows)
      0. profiles
    /. float_of_int (max 1 (List.length profiles))
  in
  let nprof = List.length profiles in
  let us name = Span.name_ns tr name /. 1e3 in
  let s = stats in
  let op_ns = Span.op_ns tr in
  let share layer = Span.layer_self_ns tr layer /. op_ns in
  let m name v = (name, (v, ops)) in
  let measured =
    [ m "lang.parse_us" (us "lang.parse");
      m "lang.typecheck_us" (us "lang.typecheck");
      m "core.translate_us" (us "core.translate");
      m "core.decorrelate_us" (us "core.decorrelate");
      m "core.simplify_us" (us "core.simplify");
      m "core.rewrite_us" (us "core.rewrite");
      m "core.reorder_us" (us "core.reorder");
      m "core.fixpoint_rounds" (count !fixpoint_rounds);
      m "core.planner_us" (us "core.plan");
      m "core.plan_apply_nodes" (count !apply_nodes_sum);
      ("cobj.stats_scan_ms", (stats_scan_ms catalogs, 3 * List.length catalogs));
      m "engine.exec_ms" (us "engine.execute" /. 1e3);
      m "engine.rows_out" (count s.rows_out);
      m "engine.predicate_evals" (count s.predicate_evals);
      m "engine.hash_builds" (count s.hash_builds);
      m "engine.hash_probes" (count s.hash_probes);
      m "engine.applies" (count s.applies);
      m "engine.apply_hit_ratio" (ratio s.apply_hits s.applies);
      m "engine.bloom_prune_ratio"
        (if s.bloom_checks = 0 then 0.
         else float_of_int s.bloom_prunes /. float_of_int s.bloom_checks);
      m "engine.partitions" (count s.partitions);
      m "engine.partition_skew" (Report.mean (Array.of_list !skews));
      ( "engine.vectorized_fraction",
        (Report.mean (Array.of_list (List.map (fun (_, v, _) -> v) profiles)), nprof) );
      ( "engine.apply_subtree_share",
        (Report.mean (Array.of_list (List.map (fun (_, _, a) -> a) profiles)), nprof) );
      m "engine.minor_mb_per_op"
        (!minor_words /. float_of_int (max 1 ops) *. float_of_int (Sys.word_size / 8) /. 1e6);
      m "engine.major_gcs_per_op" (count !major_gcs);
      m "lang.share" (share "lang");
      m "core.share" (share "core");
      m "engine.share" (share "engine");
      m "obs.unattributed_frac" (share "bench");
      m "obs.trace_overhead_frac" ((sum traced_rounds /. sum base_rounds) -. 1.) ]
    @ List.map
        (fun f -> ("engine.op." ^ f ^ ".self_ms", (fam_ms f, nprof)))
        Layers.op_families
  in
  let path = Printf.sprintf ".bench_out/trace-%s-seed%d.json" name seed in
  Span.write path [ tr ];
  Printf.printf "trace: %s (%d operations, spans of the first %d kept)\n" path ops
    (min ops Span.keep_ops);
  let failures = List.rev !failures in
  { Report.failures; attempted = ops; failed = !failed_ops; metrics = Layers.complete measured;
    extra = [] }
