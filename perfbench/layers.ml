(* The per-layer metrics of the traced run: every workload reports every
   name (0, with n=0, where a workload does not exercise the layer), so
   runs of different workloads and commits line up column by column.
   BENCHMARK.json lists the same names and units; the self-test checks
   that the two agree. *)

(* Operator families for engine.op.<family>.self_ms: operator names
   collapsed to metric-safe families (build sides, anti/semi variants of
   the non-hash joins, and memoized vs plain Apply share a family). *)
let op_families =
  [ "scan"; "filter"; "extend"; "project"; "unnest"; "nest"; "apply";
    "hash-join"; "hash-semijoin"; "hash-antijoin"; "hash-nestjoin";
    "hash-outerjoin"; "merge"; "nl"; "index"; "other" ]

let family op =
  let has p =
    String.length op >= String.length p && String.sub op 0 (String.length p) = p
  in
  match
    List.find_opt has
      [ "apply"; "hash-nestjoin"; "hash-semijoin"; "hash-antijoin";
        "hash-outerjoin"; "hash-join"; "merge-"; "nl-"; "index-"; "nest";
        "scan"; "filter"; "extend"; "project"; "unnest" ]
  with
  | Some "merge-" -> "merge"
  | Some "nl-" -> "nl"
  | Some "index-" -> "index"
  | Some f -> f
  | None -> "other"

(* name, unit, better *)
let all =
  [ ("lang.parse_us", "us", "lower");
    ("lang.typecheck_us", "us", "lower");
    ("core.translate_us", "us", "lower");
    ("core.decorrelate_us", "us", "lower");
    ("core.simplify_us", "us", "lower");
    ("core.rewrite_us", "us", "lower");
    ("core.reorder_us", "us", "lower");
    ("core.fixpoint_rounds", "count", "lower");
    ("core.planner_us", "us", "lower");
    ("core.plan_apply_nodes", "count", "lower");
    ("cobj.stats_scan_ms", "ms", "lower");
    ("engine.exec_ms", "ms", "lower");
    ("engine.rows_out", "count", "lower");
    ("engine.predicate_evals", "count", "lower");
    ("engine.hash_builds", "count", "lower");
    ("engine.hash_probes", "count", "lower");
    ("engine.applies", "count", "lower");
    ("engine.apply_hit_ratio", "ratio", "higher");
    ("engine.bloom_prune_ratio", "ratio", "higher");
    ("engine.partitions", "count", "lower");
    ("engine.partition_skew", "ratio", "lower");
    ("engine.vectorized_fraction", "ratio", "higher");
    ("engine.apply_subtree_share", "ratio", "lower");
    ("engine.minor_mb_per_op", "MB", "lower");
    ("engine.major_gcs_per_op", "count", "lower") ]
  @ List.map (fun f -> ("engine.op." ^ f ^ ".self_ms", "ms", "lower")) op_families
  @ [ ("server.rtt_ms", "ms", "lower");
      ("server.reply_ms", "ms", "lower");
      ("server.transport_ms", "ms", "lower");
      ("server.decode_us", "us", "lower");
      ("server.encode_us", "us", "lower");
      ("server.cache_query_us", "us", "lower");
      ("server.write_rtt_ms", "ms", "lower");
      ("server.plan_hit_ratio", "ratio", "higher");
      ("server.result_hit_ratio", "ratio", "higher");
      ("server.plan_evictions", "count", "lower");
      ("server.result_evictions", "count", "lower");
      ("server.results_invalidated", "count", "lower");
      ("lang.share", "ratio", "lower");
      ("core.share", "ratio", "lower");
      ("engine.share", "ratio", "lower");
      ("server.share", "ratio", "lower");
      ("obs.unattributed_frac", "ratio", "lower");
      ("obs.trace_overhead_frac", "ratio", "lower") ]

(* Complete a workload's measured values ([name, (value, samples)]) to
   the full list, in the canonical order. *)
let complete measured =
  List.map
    (fun (name, unit, _) ->
      match List.assoc_opt name measured with
      | Some (value, samples) -> Report.metric ~samples name unit value
      | None -> Report.metric ~samples:0 ~note:"not exercised" name unit 0.)
    all
