(* Self-time attribution: exclusive times telescope — their sum never
   exceeds the root's inclusive wall time, at jobs 1 and jobs 4, for the
   hash-join strategies and for shredded execution (whose analyze tree
   has a synthetic stitch root). Also pins the sort order, the JSON
   shape, the top-k cut, and the misestimation report's per-loop
   comparison. *)

module Profile = Engine.Profile
module Json = Engine.Json

let catalog =
  Workload.Gen.xy
    { Workload.Gen.default_xy with
      nx = 60; ny = 60; key_dom = 12; dangling = 0.3; seed = 7 }

let query =
  "SELECT x.id FROM X x WHERE x.a IN (SELECT y.a FROM Y y WHERE x.b = y.b)"

let analyze ~strategy ~jobs src =
  match Core.Pipeline.compile_string strategy catalog src with
  | Error msg -> Alcotest.failf "compile: %s" msg
  | Ok compiled -> (
    match Core.Pipeline.analyze ~jobs catalog compiled with
    | Error msg -> Alcotest.failf "analyze: %s" msg
    | Ok (_v, tree) -> tree)

let sum_self (p : Profile.t) =
  List.fold_left
    (fun acc (r : Profile.row) -> Int64.add acc r.Profile.self_ns)
    0L p.Profile.rows

let check_telescopes what tree =
  let p = Profile.of_node tree in
  let sum = sum_self p in
  if Int64.compare sum p.Profile.wall_ns > 0 then
    Alcotest.failf "%s: Σ self (%Ldns) exceeds root wall (%Ldns)" what sum
      p.Profile.wall_ns;
  (* the root's own self time participates, so the sum is also a
     substantial fraction of the wall — not everything clamped away *)
  if p.Profile.rows = [] then Alcotest.failf "%s: empty profile" what

let test_telescoping_jobs1 () =
  check_telescopes "decorrelated jobs=1"
    (analyze ~strategy:Core.Pipeline.Decorrelated ~jobs:1 query)

let test_telescoping_jobs4 () =
  check_telescopes "decorrelated jobs=4"
    (analyze ~strategy:Core.Pipeline.Decorrelated ~jobs:4 query)

let test_telescoping_strategies () =
  List.iter
    (fun strategy ->
      match Core.Pipeline.compile_string strategy catalog query with
      | Error _ -> () (* strategy refuses the query: nothing to profile *)
      | Ok compiled -> (
        match Core.Pipeline.analyze ~jobs:1 catalog compiled with
        | Error _ -> ()
        | Ok (_v, tree) ->
          check_telescopes (Core.Pipeline.strategy_name strategy) tree))
    Core.Pipeline.all_strategies

let test_sorted_and_consistent () =
  let tree = analyze ~strategy:Core.Pipeline.Decorrelated ~jobs:1 query in
  let p = Profile.of_node tree in
  let rec sorted = function
    | (a : Profile.row) :: (b :: _ as rest) ->
      Int64.compare a.Profile.self_ns b.Profile.self_ns >= 0 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "rows sorted by self desc" true (sorted p.Profile.rows);
  List.iter
    (fun (r : Profile.row) ->
      if Int64.compare r.Profile.self_ns r.Profile.total_ns > 0 then
        Alcotest.failf "%s: self %Ld > total %Ld" r.Profile.op
          r.Profile.self_ns r.Profile.total_ns;
      if Int64.compare r.Profile.self_ns 0L < 0 then
        Alcotest.failf "%s: negative self time" r.Profile.op)
    p.Profile.rows;
  (* a leaf's self time is its total time *)
  let rec leaves (n : Engine.Stats.node) =
    match n.Engine.Stats.children with
    | [] -> [ n ]
    | cs -> List.concat_map leaves cs
  in
  List.iter
    (fun leaf ->
      Alcotest.(check int64) "leaf self = total" leaf.Engine.Stats.time_ns
        (Profile.self_ns leaf))
    (leaves tree)

let test_json_shape () =
  let tree = analyze ~strategy:Core.Pipeline.Decorrelated ~jobs:1 query in
  let p = Profile.of_node tree in
  match Profile.to_json p with
  | Json.Obj fields ->
    (match List.assoc_opt "wall_ns" fields with
    | Some (Json.Int64 _ | Json.Int _) -> ()
    | _ -> Alcotest.fail "wall_ns missing");
    (match List.assoc_opt "operators" fields with
    | Some (Json.List ops) ->
      Alcotest.(check int) "one object per row" (List.length p.Profile.rows)
        (List.length ops);
      List.iter
        (fun op ->
          match op with
          | Json.Obj props ->
            List.iter
              (fun key ->
                if not (List.mem_assoc key props) then
                  Alcotest.failf "operator object missing %s" key)
              [
                "op"; "detail"; "self_ns"; "total_ns"; "rows_out";
                "rows_per_ms"; "loops"; "vectorized"; "bloom_prunes";
                "partitions";
              ]
          | _ -> Alcotest.fail "operator not an object")
        ops
    | _ -> Alcotest.fail "operators missing")
  | _ -> Alcotest.fail "profile json not an object"

let test_top_k () =
  let tree = analyze ~strategy:Core.Pipeline.Decorrelated ~jobs:1 query in
  let p = Profile.of_node tree in
  let n = List.length p.Profile.rows in
  Alcotest.(check int) "top 1" (min 1 n) (List.length (Profile.top ~k:1 p));
  Alcotest.(check int) "top default caps at 5" (min 5 n)
    (List.length (Profile.top p));
  Alcotest.(check int) "top beyond length" n
    (List.length (Profile.top ~k:(n + 10) p));
  match (Profile.top ~k:1 p, p.Profile.rows) with
  | [ t ], r :: _ ->
    Alcotest.(check string) "top row is the hottest" r.Profile.op
      t.Profile.op
  | _ -> Alcotest.fail "top 1 of a non-empty profile"

let test_profile_metrics () =
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  let tree = analyze ~strategy:Core.Pipeline.Decorrelated ~jobs:1 query in
  let p = Profile.of_node tree in
  Profile.record_metrics p;
  let dumped = Obs.Metrics.dump () in
  let self_gauges =
    List.filter
      (fun (name, _) ->
        String.starts_with ~prefix:"profile.self_us." name)
      dumped
  in
  Obs.Metrics.reset ();
  Obs.Metrics.disable ();
  Alcotest.(check bool) "per-op self gauges recorded" true
    (self_gauges <> []);
  List.iter
    (fun (name, v) ->
      match v with
      | Obs.Metrics.Gauge g ->
        if g < 0. then Alcotest.failf "%s negative" name
      | _ -> Alcotest.failf "%s is not a gauge" name)
    self_gauges

(* A scan under a memoized correlated Apply runs once per distinct
   binding. Its estimate is for one run and exact, so the misestimation
   report must compare it with the rows of one run and rate it 1.0×, not
   loops× under. *)
let test_misest_per_loop () =
  let src = List.assoc "ws-eq" Test_planner.apply_deep in
  let options =
    { Core.Planner.default_options with memo_applies = true; use_indexes = false }
  in
  match Core.Pipeline.compile_string ~options Core.Pipeline.Decorrelated catalog src with
  | Error msg -> Alcotest.failf "compile: %s" msg
  | Ok ({ Core.Pipeline.physical = Some pq; _ } as compiled) -> (
    match Core.Pipeline.analyze catalog compiled with
    | Error msg -> Alcotest.failf "analyze: %s" msg
    | Ok (_v, tree) ->
      let scans =
        List.filter
          (fun (e : Core.Misest.entry) -> e.op = "scan" && e.detail = "Y w")
          (Core.Misest.of_query catalog pq tree)
      in
      (match scans with
      | [ e ] ->
        Alcotest.(check bool)
          (Printf.sprintf "scan runs %d > 1 times" e.loops)
          true (e.loops > 1);
        Alcotest.(check (float 1e-9)) "exact per-loop estimate" 1.0 e.factor;
        Alcotest.(check bool) "not under" false e.under
      | _ -> Alcotest.fail "expected one scan of Y w"))
  | Ok _ -> Alcotest.fail "no physical plan"

let suite =
  [
    Alcotest.test_case "Σ self ≤ root wall (jobs 1)" `Quick
      test_telescoping_jobs1;
    Alcotest.test_case "Σ self ≤ root wall (jobs 4)" `Quick
      test_telescoping_jobs4;
    Alcotest.test_case "Σ self ≤ root wall (all strategies)" `Quick
      test_telescoping_strategies;
    Alcotest.test_case "sorted, clamped, leaf self = total" `Quick
      test_sorted_and_consistent;
    Alcotest.test_case "JSON shape" `Quick test_json_shape;
    Alcotest.test_case "top-k cut" `Quick test_top_k;
    Alcotest.test_case "profile.self_us gauges" `Quick test_profile_metrics;
    Alcotest.test_case "misest compares one loop" `Quick test_misest_per_loop;
  ]
