(* Physical planner tests: implementation selection, forced modes, and the
   §6 build-side restriction at planning level. *)

open Helpers
module Plan = Algebra.Plan
module P = Engine.Physical
module Value = Cobj.Value

let catalog = Workload.Gen.xy Workload.Gen.default_xy
let x = Plan.Table { name = "X"; var = "x" }
let y = Plan.Table { name = "Y"; var = "y" }
let pred = parse "x.b = y.b"

let rec find_op pred plan =
  if pred plan then true
  else
    match plan with
    | P.Unit_row | P.Scan _ -> false
    | P.Filter { input; _ }
    | P.Unnest_op { input; _ }
    | P.Nest_op { input; _ }
    | P.Extend_op { input; _ }
    | P.Project_op { input; _ } ->
      find_op pred input
    | P.Nl_join { left; right; _ }
    | P.Hash_join { left; right; _ }
    | P.Merge_join { left; right; _ }
    | P.Nl_semijoin { left; right; _ }
    | P.Hash_semijoin { left; right; _ }
    | P.Merge_semijoin { left; right; _ }
    | P.Nl_outerjoin { left; right; _ }
    | P.Hash_outerjoin { left; right; _ }
    | P.Merge_outerjoin { left; right; _ }
    | P.Nl_nestjoin { left; right; _ }
    | P.Hash_nestjoin { left; right; _ }
    | P.Hash_nestjoin_left { left; right; _ }
    | P.Merge_nestjoin { left; right; _ } ->
      find_op pred left || find_op pred right
    | P.Apply_op { subquery; input; _ } ->
      find_op pred subquery.P.plan || find_op pred input
    | P.Index_join { left; _ }
    | P.Index_semijoin { left; _ }
    | P.Index_nestjoin { left; _ } ->
      find_op pred left
    | P.Union_op { left; right } -> find_op pred left || find_op pred right

let test_equi_join_hashes () =
  (* with indexes enabled the planner picks the index probe (same asymptotic
     cost, amortized build); with indexes off it must hash *)
  let physical =
    Core.Planner.plan catalog (Plan.Join { pred; left = x; right = y })
  in
  Alcotest.check Alcotest.bool "hash or index join selected" true
    (find_op
       (function P.Hash_join _ | P.Index_join _ -> true | _ -> false)
       physical);
  let no_idx =
    Core.Planner.plan
      ~options:{ Core.Planner.default_options with use_indexes = false }
      catalog
      (Plan.Join { pred; left = x; right = y })
  in
  Alcotest.check Alcotest.bool "hash join without indexes" true
    (find_op (function P.Hash_join _ -> true | _ -> false) no_idx)

let test_non_equi_join_nl () =
  let physical =
    Core.Planner.plan catalog
      (Plan.Join { pred = parse "x.b < y.b"; left = x; right = y })
  in
  Alcotest.check Alcotest.bool "nested loops for non-equi" true
    (find_op (function P.Nl_join _ -> true | _ -> false) physical)

let test_force_modes () =
  let logical = Plan.Join { pred; left = x; right = y } in
  let run options =
    Engine.Exec.rows catalog Cobj.Env.empty
      (Core.Planner.plan ~options catalog logical)
    |> List.sort_uniq Cobj.Env.compare
  in
  let auto = run Core.Planner.default_options in
  List.iter
    (fun force ->
      let got = run { Core.Planner.default_options with force } in
      Alcotest.check Alcotest.int "same cardinality under forced impl"
        (List.length auto) (List.length got);
      if not (List.for_all2 Cobj.Env.equal auto got) then
        Alcotest.fail "forced implementation changed the result")
    Core.Planner.[ Force_nl; Force_hash; Force_merge ]

let test_residual_extracted () =
  let logical =
    Plan.Join { pred = parse "x.b = y.b AND x.a < y.a"; left = x; right = y }
  in
  let physical = Core.Planner.plan catalog logical in
  Alcotest.check Alcotest.bool "equi key + residual" true
    (find_op
       (function
         | P.Hash_join { residual = Some _; _ }
         | P.Index_join { residual = Some _; _ } ->
           true
         | _ -> false)
       physical)

let test_multi_key_join () =
  let logical =
    Plan.Join { pred = parse "x.b = y.b AND x.a = y.a"; left = x; right = y }
  in
  let physical = Core.Planner.plan catalog logical in
  let uses_tuple_keys = function
    | P.Hash_join { lkey = Lang.Ast.TupleE _; rkey = Lang.Ast.TupleE _; _ } ->
      true
    | _ -> false
  in
  Alcotest.check Alcotest.bool "composite keys become tuples" true
    (find_op uses_tuple_keys physical);
  (* and the result matches the oracle *)
  let expected = Algebra.Sem.rows catalog Cobj.Env.empty logical in
  let got =
    Engine.Exec.rows catalog Cobj.Env.empty physical
    |> List.sort_uniq Cobj.Env.compare
  in
  Alcotest.check Alcotest.int "cardinality" (List.length expected)
    (List.length got)

let test_left_build_requires_key () =
  (* nest join keyed on the unique x.id: left-build becomes available *)
  let keyed =
    Plan.Nestjoin
      { pred = parse "y.b = x.id"; func = parse "x.a"; label = "g"; left = y;
        right = x }
  in
  let physical = Core.Planner.plan catalog keyed in
  ignore
    (find_op (function P.Hash_nestjoin_left _ -> true | _ -> false) physical);
  (* keyed on the non-unique x.b: left-build must NOT be chosen *)
  let unkeyed =
    Plan.Nestjoin
      { pred = parse "y.b = x.b"; func = parse "x.a"; label = "g"; left = y;
        right = x }
  in
  let physical = Core.Planner.plan catalog unkeyed in
  Alcotest.check Alcotest.bool "left-build rejected without key" false
    (find_op (function P.Hash_nestjoin_left _ -> true | _ -> false) physical)

let test_uncorrelated_apply_memoized () =
  let sub =
    { Plan.plan = Plan.Select { pred = parse "y.b = 3"; input = y };
      result = parse "y.a" }
  in
  let logical = Plan.Apply { var = "z"; subquery = sub; input = x } in
  let physical = Core.Planner.plan catalog logical in
  Alcotest.check Alcotest.bool "memo set" true
    (find_op (function P.Apply_op { memo; _ } -> memo | _ -> false) physical)

let test_correlated_apply_memo_option () =
  let sub =
    { Plan.plan = Plan.Select { pred = parse "y.b = x.b"; input = y };
      result = parse "y.a" }
  in
  let logical = Plan.Apply { var = "z"; subquery = sub; input = x } in
  let plain = Core.Planner.plan catalog logical in
  Alcotest.check Alcotest.bool "correlated not memoized by default" false
    (find_op (function P.Apply_op { memo; _ } -> memo | _ -> false) plain);
  let memoed =
    Core.Planner.plan
      ~options:{ Core.Planner.default_options with memo_applies = true }
      catalog logical
  in
  Alcotest.check Alcotest.bool "memo_applies forces memoization" true
    (find_op (function P.Apply_op { memo; _ } -> memo | _ -> false) memoed)

let test_index_operators_correct () =
  (* each index operator agrees with the oracle *)
  let check logical physical =
    let expected = Algebra.Sem.rows catalog Cobj.Env.empty logical in
    let got =
      Engine.Exec.rows catalog Cobj.Env.empty physical
      |> List.sort_uniq Cobj.Env.compare
    in
    if
      not
        (List.length expected = List.length got
        && List.for_all2 Cobj.Env.equal expected got)
    then Alcotest.fail "index operator diverged from oracle"
  in
  let sx = P.Scan { table = "X"; var = "x" } in
  check
    (Plan.Join { pred; left = x; right = y })
    (P.Index_join
       { lkey = parse "x.b"; table = "Y"; var = "y"; field = "b";
         residual = None; left = sx });
  check
    (Plan.Semijoin { pred; left = x; right = y })
    (P.Index_semijoin
       { lkey = parse "x.b"; table = "Y"; var = "y"; field = "b";
         residual = None; anti = false; left = sx });
  check
    (Plan.Antijoin { pred; left = x; right = y })
    (P.Index_semijoin
       { lkey = parse "x.b"; table = "Y"; var = "y"; field = "b";
         residual = None; anti = true; left = sx });
  check
    (Plan.Nestjoin
       { pred; func = parse "y.a"; label = "g"; left = x; right = y })
    (P.Index_nestjoin
       { lkey = parse "x.b"; table = "Y"; var = "y"; field = "b";
         residual = None; func = parse "y.a"; label = "g"; left = sx });
  check
    (Plan.Join { pred = parse "x.b = y.b AND x.a < y.a"; left = x; right = y })
    (P.Index_join
       { lkey = parse "x.b"; table = "Y"; var = "y"; field = "b";
         residual = Some (parse "x.a < y.a"); left = sx })

let test_cost_sanity () =
  (* hash beats nested loops on equal inputs at these sizes *)
  let sx = P.Scan { table = "X"; var = "x" } in
  let sy = P.Scan { table = "Y"; var = "y" } in
  let nl = P.Nl_join { pred; left = sx; right = sy } in
  let hash =
    P.Hash_join
      { lkey = parse "x.b"; rkey = parse "y.b"; residual = None; left = sx;
        right = sy }
  in
  Alcotest.check Alcotest.bool "cost(hash) < cost(nl)" true
    (Core.Cost.cost catalog hash < Core.Cost.cost catalog nl)

(* The three queries whose correlation skips a level: decorrelation leaves
   a memoized Apply whose body filters Y by the outer x.b. *)
let apply_deep =
  [
    ( "ws-eq",
      "SELECT (i = x.id, ys = (SELECT (a = y.a, ws = (SELECT w.a FROM Y w \
       WHERE w.b = x.b AND w.a = y.a)) FROM Y y WHERE y.b = x.b)) FROM X x" );
    ( "sum-counts",
      "SELECT (i = x.id, n = SUM(SELECT COUNT(SELECT w.id FROM Y w WHERE w.a \
       = y.a AND w.b = x.b) FROM Y y WHERE y.b = x.b)) FROM X x" );
    ( "ws-lt",
      "SELECT (i = x.id, ys = (SELECT (b = y.id, ws = (SELECT w.id FROM Y w \
       WHERE w.b = x.b AND w.a < y.a)) FROM Y y WHERE y.b = x.b)) FROM X x" );
  ]

let apply_deep_catalog n =
  Workload.Gen.xy
    { Workload.Gen.default_xy with
      nx = n; ny = n; key_dom = max 1 (n / 4); dangling = 0.2; seed = 1 }

let physical ?options strategy catalog src =
  match Core.Pipeline.compile_string ?options strategy catalog src with
  | Ok { Core.Pipeline.physical = Some pq; _ } -> pq.P.plan
  | Ok _ -> Alcotest.failf "no physical plan for %s" src
  | Error msg -> Alcotest.failf "compile failed on %s: %s" src msg

let unit_probe = function
  | P.Index_join { left = P.Unit_row; _ } -> true
  | _ -> false

(* A filter over a scan whose predicate reads a variable the scan does not
   bind. *)
let correlated_filter_scan = function
  | P.Filter { pred; input = P.Scan { var; _ } } ->
    not
      (Lang.Ast.String_set.is_empty
         (Lang.Ast.String_set.remove var (Lang.Ast.free_vars pred)))
  | _ -> false

let in_apply f =
  find_op (function
    | P.Apply_op { subquery; _ } -> find_op f subquery.P.plan
    | _ -> false)

let test_apply_probes_index () =
  let catalog = apply_deep_catalog 200 in
  List.iter
    (fun (name, src) ->
      let plan = physical Core.Pipeline.Decorrelated catalog src in
      Alcotest.(check bool) (name ^ ": index probe over unit in the apply")
        true (in_apply unit_probe plan);
      Alcotest.(check bool) (name ^ ": no correlated filter over a scan")
        false
        (find_op correlated_filter_scan plan))
    apply_deep

(* Without indexes, and under the strategies that plan without memoized
   applies, the correlated filters stay filters over scans. *)
let test_apply_probe_gated () =
  let catalog = apply_deep_catalog 200 in
  let unchanged what plan =
    Alcotest.(check bool) (what ^ ": no index probe over unit") false
      (find_op unit_probe plan);
    Alcotest.(check bool) (what ^ ": correlated filter kept") true
      (find_op correlated_filter_scan plan)
  in
  List.iter
    (fun (name, src) ->
      unchanged (name ^ " without indexes")
        (physical
           ~options:
             { Core.Planner.default_options with
               memo_applies = true; use_indexes = false }
           Core.Pipeline.Decorrelated catalog src);
      List.iter
        (fun strategy ->
          unchanged
            (Printf.sprintf "%s under %s" name
               (Core.Pipeline.strategy_name strategy))
            (physical strategy catalog src))
        Core.Pipeline.[ Naive; Kim_baseline; Ganski_wong; Muralikrishna ])
    apply_deep

(* Only an equality with a correlation value probes the index: a constant
   equality or a range correlation alone keeps the filter, and a range
   next to a correlated equality stays the probe's residual. *)
let test_apply_probe_shapes () =
  let plan pred =
    let sub =
      { Plan.plan = Plan.Select { pred = parse pred; input = y };
        result = parse "y.a" }
    in
    Core.Planner.plan
      ~options:{ Core.Planner.default_options with memo_applies = true }
      catalog
      (Plan.Apply { var = "z"; subquery = sub; input = x })
  in
  List.iter
    (fun pred ->
      let p = plan pred in
      Alcotest.(check bool) (pred ^ ": filter kept") true
        (in_apply (function P.Filter { input = P.Scan _; _ } -> true | _ -> false) p);
      Alcotest.(check bool) (pred ^ ": no index probe") false
        (find_op unit_probe p))
    [ "y.b = 3"; "y.b = 3 AND y.a < x.a"; "y.a < x.a" ];
  Alcotest.(check bool) "range stays residual" true
    (in_apply
       (function
         | P.Index_join
             { left = P.Unit_row; field = "b"; residual = Some r; lkey; _ } ->
           Lang.Ast.equal lkey (parse "x.b")
           && Lang.Ast.equal r (parse "y.a < x.a")
         | _ -> false)
       (plan "y.b = x.b AND y.a < x.a"))

let suite =
  [
    Alcotest.test_case "equi join hashes" `Quick test_equi_join_hashes;
    Alcotest.test_case "non-equi join nested-loops" `Quick test_non_equi_join_nl;
    Alcotest.test_case "forced modes agree" `Quick test_force_modes;
    Alcotest.test_case "residual extraction" `Quick test_residual_extracted;
    Alcotest.test_case "composite keys" `Quick test_multi_key_join;
    Alcotest.test_case "left-build requires a key" `Quick
      test_left_build_requires_key;
    Alcotest.test_case "uncorrelated apply memoized" `Quick
      test_uncorrelated_apply_memoized;
    Alcotest.test_case "memo_applies option" `Quick
      test_correlated_apply_memo_option;
    Alcotest.test_case "index operators correct" `Quick
      test_index_operators_correct;
    Alcotest.test_case "cost model sanity" `Quick test_cost_sanity;
    Alcotest.test_case "memoized apply probes the index" `Quick
      test_apply_probes_index;
    Alcotest.test_case "apply index probe gated" `Quick test_apply_probe_gated;
    Alcotest.test_case "apply index probe shapes" `Quick test_apply_probe_shapes;
  ]
