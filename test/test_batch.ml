(* The columnar batch engine (Engine.Batch / Engine.Vexpr / the vector
   paths in Engine.Exec).

   Two layers of evidence:
   - unit tests pinning the batch representation itself — chunking at the
     batch boundary, selection-vector narrowing, late-materialized
     environments — on the edge cases (empty batch, all-selected,
     singleton, rows straddling a batch boundary);
   - the differential oracle: for random nested queries over the mixed
     and the all-dangling catalogs, the engine must produce the
     interpreter's value (or fail where it fails), and the same
     Engine.Stats work profile at every batch width and at 4 domains as
     serially at the default width. Width and domain count are physical
     layout only; any observable difference is a bug. *)

open Helpers
module Batch = Engine.Batch
module Exec = Engine.Exec
module Stats = Engine.Stats
module P = Engine.Physical

(* --- batch representation ------------------------------------------------ *)

let values_of batches =
  List.map (Env.find "v") (Batch.rows_of_batches batches)

let test_batch_chunking () =
  (* A scan constructor splits at the batch boundary and preserves row
     order; the last batch straddles nothing and is short. *)
  let vals = List.init 5 (fun i -> Value.Int i) in
  let bs = Batch.of_values ~size:2 "v" Env.empty vals in
  Alcotest.(check (list int)) "chunk lengths" [ 2; 2; 1 ]
    (List.map Batch.live bs);
  Alcotest.(check int) "live total" 5 (Batch.live_total bs);
  Alcotest.(check (list value)) "row order preserved" vals (values_of bs);
  (* the empty input produces no batches at all *)
  Alcotest.(check int) "empty: no batches" 0
    (List.length (Batch.of_values ~size:2 "v" Env.empty []));
  Alcotest.(check int) "empty rows: no batches" 0
    (List.length (Batch.of_rows ~size:4 []));
  (* a singleton input is one short batch *)
  let one = Batch.of_values ~size:1024 "v" Env.empty [ Value.Int 7 ] in
  Alcotest.(check (list int)) "singleton" [ 1 ] (List.map Batch.live one)

let test_selection_vectors () =
  let vals = List.init 4 (fun i -> Value.Int i) in
  let b = List.hd (Batch.of_values ~size:8 "v" Env.empty vals) in
  (* all-selected: an explicit full selection behaves like none at all *)
  let full = Batch.narrow b [| 0; 1; 2; 3 |] in
  Alcotest.(check int) "all selected" 4 (Batch.live full);
  Alcotest.(check (list value)) "all rows" vals (values_of [ full ]);
  (* a sparse selection keeps ascending live order *)
  let odd = Batch.narrow b [| 1; 3 |] in
  Alcotest.(check (list value)) "narrowed"
    [ Value.Int 1; Value.Int 3 ]
    (values_of [ odd ]);
  (* the empty selection is a live batch of zero rows *)
  let none = Batch.narrow b [||] in
  Alcotest.(check int) "none selected" 0 (Batch.live none);
  Alcotest.(check int) "no rows materialized" 0
    (List.length (Batch.to_rows none));
  (* a singleton selection *)
  let one = Batch.narrow b [| 2 |] in
  Alcotest.(check (list value)) "singleton selection" [ Value.Int 2 ]
    (values_of [ one ])

let test_late_materialization () =
  (* env_at layers columns over the shared tail exactly like the row
     engine's Env.bind nesting: newest column found first. *)
  let tail = Env.bind "outer" (Value.Int 99) Env.empty in
  let b = List.hd (Batch.of_values ~size:8 "v" tail [ Value.Int 0 ]) in
  let b = Batch.add_col b "w" (Batch.Const (Value.Int 5)) in
  let env = Batch.env_at b 0 in
  Alcotest.check value "new column" (Value.Int 5) (Env.find "w" env);
  Alcotest.check value "scan column" (Value.Int 0) (Env.find "v" env);
  Alcotest.check value "ambient tail" (Value.Int 99) (Env.find "outer" env)

(* --- executor edge cases -------------------------------------------------- *)

(* The partition counters are the only jobs-dependent part of a Stats
   record. *)
let jobs_invariant s = { s with Stats.partitions = 0; partition_max_rows = 0 }

type outcome = (Value.t, string) result

let run_engine ?(jobs = 1) ?(batch = 1024) catalog pq : outcome * Stats.t =
  let stats = Stats.create () in
  let outcome =
    match Exec.run_under ~stats ~jobs ~batch catalog Env.empty pq with
    | v -> Ok v
    | exception Cobj.Value.Type_error m -> Error ("type: " ^ m)
    | exception Lang.Interp.Undefined m -> Error ("undefined: " ^ m)
  in
  (outcome, stats)

(* Equal values, or both sides fail. *)
let agrees_with_interp catalog src (outcome : outcome) =
  match (Core.Pipeline.run Core.Pipeline.Interp catalog src, outcome) with
  | Ok a, Ok b -> Value.equal a b
  | Error _, Error _ -> true
  | _ -> false

let same_outcome (a : outcome) (b : outcome) =
  match (a, b) with
  | Ok a, Ok b -> Value.equal a b
  | Error a, Error b -> String.equal a b
  | _ -> false

(* Check one query: the serial run at the default width must match the
   interpreter's value, and every other batch width, serially and at 4
   domains, must reproduce that run's value and jobs-invariant Stats. *)
let differential catalog src =
  match
    Core.Pipeline.compile_string Core.Pipeline.Decorrelated catalog src
  with
  | Error msg -> Alcotest.failf "compile failed on %s: %s" src msg
  | Ok { Core.Pipeline.physical = None; _ } ->
    Alcotest.failf "no physical plan for %s" src
  | Ok { Core.Pipeline.physical = Some pq; _ } ->
    let vref, sref = run_engine catalog pq in
    Alcotest.(check bool)
      (Printf.sprintf "value agrees with the interpreter on %s" src)
      true
      (agrees_with_interp catalog src vref);
    List.iter
      (fun jobs ->
        List.iter
          (fun batch ->
            let v, s = run_engine ~jobs ~batch catalog pq in
            Alcotest.(check bool)
              (Printf.sprintf "value (jobs=%d, batch=%d) on %s" jobs batch src)
              true (same_outcome vref v);
            Alcotest.(check bool)
              (Printf.sprintf "stats (jobs=%d, batch=%d) on %s" jobs batch src)
              true
              (jobs_invariant s = jobs_invariant sref))
          [ 1; 2; 3; 64 ])
      [ 1; 4 ]

let filter_edge_queries =
  [
    (* all five X rows pass: every batch fully selected *)
    "SELECT x.a FROM X x WHERE x.a >= 0";
    (* none pass: every batch narrows to empty and is dropped *)
    "SELECT x.a FROM X x WHERE x.a > 100";
    (* exactly one passes (the dangling b = 5 row): singleton selection *)
    "SELECT x.a FROM X x WHERE x.b = 5";
    (* a predicate whose matching rows straddle the batch-2 boundary *)
    "SELECT x.b FROM X x WHERE x.a = 2";
  ]

let join_edge_queries =
  [
    "SELECT x.a FROM X x WHERE x.a IN (SELECT y.c FROM Y y WHERE y.d = x.b)";
    "SELECT (a = x.a, cs = (SELECT y.c FROM Y y WHERE y.d = x.b)) FROM X x";
    "SELECT x.a FROM X x WHERE COUNT(SELECT y.c FROM Y y WHERE y.d = x.b) = 0";
    (* arithmetic + comparison kernels in the extend/filter fragment *)
    "SELECT x.a + x.b FROM X x WHERE x.a * 2 < x.b + 10 AND x.a MOD 2 = 0";
  ]

let test_filter_edges () =
  let catalog = xy_catalog () in
  List.iter (differential catalog) filter_edge_queries

let test_join_edges () =
  let catalog = xy_catalog () in
  List.iter (differential catalog) join_edge_queries

(* With [Compile.enabled] off, no expression gets a kernel, so the batch
   engine evaluates through the interpreter — and still produces the
   compiled mode's value and work profile. *)
let test_interpreted_mode () =
  let catalog = xy_catalog () in
  let queries = filter_edge_queries @ join_edge_queries in
  let plan src =
    match
      Core.Pipeline.compile_string Core.Pipeline.Decorrelated catalog src
    with
    | Ok { Core.Pipeline.physical = Some pq; _ } -> pq
    | _ -> Alcotest.failf "no physical plan for %s" src
  in
  let has_kernel () =
    Option.is_some (Engine.Vexpr.compile catalog (parse "x.a * 2 < x.b + 10"))
  in
  Alcotest.(check bool) "kernel in compiled mode" true (has_kernel ());
  let compiled = List.map (fun src -> run_engine catalog (plan src)) queries in
  let interpreted =
    Fun.protect
      ~finally:(fun () -> Engine.Compile.enabled := true)
      (fun () ->
        Engine.Compile.enabled := false;
        Alcotest.(check bool) "no kernel in interpreted mode" false
          (has_kernel ());
        List.map (fun src -> run_engine catalog (plan src)) queries)
  in
  List.iter2
    (fun src ((cv, cs), (iv, is)) ->
      Alcotest.(check bool) ("value on " ^ src) true (same_outcome cv iv);
      Alcotest.(check bool) ("stats on " ^ src) true (cs = is))
    queries
    (List.combine compiled interpreted)

(* The left-build nest join runs on the partitioned hash core too: at
   every domain count and width it must reproduce the value and the
   jobs-invariant Stats of one domain at width 1024. *)
let test_left_build_jobs () =
  let pq =
    { P.plan = Test_engine.left_build_legal; result = parse "(y = y, zs = zs)" }
  in
  List.iter
    (fun (cname, catalog) ->
      let vref, sref = run_engine catalog pq in
      Alcotest.(check bool) (cname ^ ": reference run succeeds") true
        (Result.is_ok vref);
      List.iter
        (fun (jobs, batch) ->
          let v, s = run_engine ~jobs ~batch catalog pq in
          let tag = Printf.sprintf "%s jobs=%d batch=%d" cname jobs batch in
          Alcotest.(check bool) ("value " ^ tag) true (same_outcome vref v);
          Alcotest.(check bool) ("stats " ^ tag) true
            (jobs_invariant s = jobs_invariant sref))
        [ (1, 1); (4, 1); (4, 1024) ])
    [
      ("mixed", Test_random_queries.catalog);
      ("all-dangling", Test_random_queries.all_dangling_catalog);
    ]

(* The two counters [jobs_invariant] blanks: with at least two probe
   rows, 4 domains split every hash operator's build into 8 partitions,
   the largest holding between an even share and all of it; one domain
   records neither counter. *)
let test_partition_counters () =
  let catalog = Test_random_queries.catalog in
  let x = P.Scan { table = "X"; var = "x" }
  and y = P.Scan { table = "Y"; var = "y" } in
  let lkey = parse "x.b" and rkey = parse "y.b" in
  let plans =
    [
      ( "hash-join",
        P.Hash_join { lkey; rkey; residual = None; left = x; right = y } );
      ( "hash-semijoin",
        P.Hash_semijoin
          { lkey; rkey; residual = None; anti = false; left = x; right = y } );
      ( "hash-outerjoin",
        P.Hash_outerjoin { lkey; rkey; residual = None; left = x; right = y } );
      ( "hash-nestjoin",
        P.Hash_nestjoin
          { lkey; rkey; residual = None; func = parse "y.a"; label = "g";
            left = x; right = y } );
      ("hash-nestjoin-left", Test_engine.left_build_legal);
    ]
  in
  let counters jobs plan =
    let node = Engine.Analyze.tree_of_plan plan in
    ignore (Exec.rows_instrumented ~jobs node catalog Env.empty plan);
    node.Stats.counters
  in
  List.iter
    (fun (name, plan) ->
      let s = counters 4 plan in
      let builds = s.Stats.hash_builds in
      Alcotest.(check bool) (name ^ ": at least two probe rows") true
        (s.Stats.hash_probes >= 2);
      Alcotest.(check int) (name ^ ": 8 partitions at jobs 4") 8
        s.Stats.partitions;
      Alcotest.(check bool)
        (Printf.sprintf "%s: ceil(%d/8) <= part-max %d <= %d" name builds
           s.Stats.partition_max_rows builds)
        true
        ((builds + 7) / 8 <= s.Stats.partition_max_rows
        && s.Stats.partition_max_rows <= builds);
      let s1 = counters 1 plan in
      Alcotest.(check int) (name ^ ": no partitions at jobs 1") 0
        s1.Stats.partitions;
      Alcotest.(check int) (name ^ ": no part-max at jobs 1") 0
        s1.Stats.partition_max_rows)
    plans

(* The correlated filters of a memoized Apply become index probes
   (Test_planner.apply_deep): the values must equal the interpreter's at
   every domain count and width, and the probes must do at least 10× less
   predicate work than the filters they replace. *)
let test_apply_index_probe () =
  let compile ?options catalog src =
    match
      Core.Pipeline.compile_string ?options Core.Pipeline.Decorrelated catalog
        src
    with
    | Ok { Core.Pipeline.physical = Some pq; _ } -> pq
    | Ok _ -> Alcotest.failf "no physical plan for %s" src
    | Error msg -> Alcotest.failf "compile failed on %s: %s" src msg
  in
  List.iter
    (fun (name, src) ->
      List.iter
        (fun (cname, catalog) ->
          let pq = compile catalog src in
          Alcotest.(check bool) (name ^ " probes the index on " ^ cname) true
            (Test_planner.find_op Test_planner.unit_probe pq.P.plan);
          List.iter
            (fun (jobs, batch) ->
              let v, _ = run_engine ~jobs ~batch catalog pq in
              Alcotest.(check bool)
                (Printf.sprintf "%s on %s (jobs=%d, batch=%d) agrees with \
                                 the interpreter"
                   name cname jobs batch)
                true
                (Result.is_ok v && agrees_with_interp catalog src v))
            [ (1, 1); (1, 1024); (4, 1024) ])
        [
          ("mixed", Test_random_queries.catalog);
          ("all-dangling", Test_random_queries.all_dangling_catalog);
        ];
      let catalog = Test_planner.apply_deep_catalog 200 in
      let evals options =
        let _, s = run_engine catalog (compile ?options catalog src) in
        s.Stats.predicate_evals
      in
      let probed = evals None
      and filtered =
        evals
          (Some
             { Core.Planner.default_options with
               memo_applies = true; use_indexes = false })
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d predicate evals, at least 10x below %d" name
           probed filtered)
        true
        (10 * probed <= filtered))
    Test_planner.apply_deep

(* --- the differential oracle --------------------------------------------- *)

(* For random queries: the serial run at the default width must match
   the interpreter's value (or fail where it fails), and every batch
   width at 1 and 4 domains must reproduce that run's value and
   jobs-invariant Stats. *)
let prop_vector_oracle =
  qcheck ~count:120 "vector engine ≡ row engine (value + stats, jobs 1/4)"
    Test_random_queries.query_gen
    (fun src ->
      List.for_all
        (fun (cname, cat) ->
          match
            Core.Pipeline.compile_string Core.Pipeline.Decorrelated cat src
          with
          | Error msg ->
            QCheck2.Test.fail_reportf "compile failed on %s: %s" src msg
          | Ok { Core.Pipeline.physical = None; _ } -> true
          | Ok { Core.Pipeline.physical = Some pq; _ } ->
            let vref, sref = run_engine cat pq in
            (agrees_with_interp cat src vref
            || QCheck2.Test.fail_reportf "value differs from interp on %s (%s)"
                 src cname)
            && List.for_all
                 (fun (jobs, batch) ->
                   let v, s = run_engine ~jobs ~batch cat pq in
                   (same_outcome vref v
                   || QCheck2.Test.fail_reportf
                        "value differs at jobs=%d batch=%d on %s (%s)" jobs
                        batch src cname)
                   && (jobs_invariant s = jobs_invariant sref
                      || QCheck2.Test.fail_reportf
                           "stats differ at jobs=%d batch=%d on %s (%s):@.\
                            ref %a@.got %a"
                           jobs batch src cname Stats.pp sref Stats.pp s))
                 [ (1, 1); (1, 7); (4, 1); (4, 1024) ])
        [
          ("mixed", Test_random_queries.catalog);
          ("all-dangling", Test_random_queries.all_dangling_catalog);
        ])

(* Batch-width sensitivity on random queries: the width is physical
   layout only, never semantics. Width 1024 is the reference. *)
let prop_batch_width_invariant =
  qcheck ~count:60 "batch width never changes value or stats"
    Test_random_queries.query_gen
    (fun src ->
      let cat = Test_random_queries.catalog in
      match
        Core.Pipeline.compile_string Core.Pipeline.Decorrelated cat src
      with
      | Error msg ->
        QCheck2.Test.fail_reportf "compile failed on %s: %s" src msg
      | Ok { Core.Pipeline.physical = None; _ } -> true
      | Ok { Core.Pipeline.physical = Some pq; _ } ->
        let rv, rs = run_engine ~batch:1024 cat pq in
        List.for_all
          (fun batch ->
            let vv, vs = run_engine ~batch cat pq in
            (same_outcome rv vv && vs = rs)
            || QCheck2.Test.fail_reportf "batch=%d differs on %s" batch src)
          [ 1; 7 ])

let suite =
  [
    Alcotest.test_case "batch chunking" `Quick test_batch_chunking;
    Alcotest.test_case "selection vectors" `Quick test_selection_vectors;
    Alcotest.test_case "late materialization" `Quick test_late_materialization;
    Alcotest.test_case "filter edge cases" `Quick test_filter_edges;
    Alcotest.test_case "join edge cases" `Quick test_join_edges;
    Alcotest.test_case "interpreted mode stays interpreted" `Quick
      test_interpreted_mode;
    Alcotest.test_case "left-build nest join at every jobs" `Quick
      test_left_build_jobs;
    Alcotest.test_case "partition counters" `Quick test_partition_counters;
    Alcotest.test_case "apply index probe at every jobs" `Quick
      test_apply_index_probe;
    prop_vector_oracle;
    prop_batch_width_invariant;
  ]
