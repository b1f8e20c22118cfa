(* Misestimation report: operators ranked by how far the cost model's
   cardinality estimate diverged from the measured row count, each with
   the statistics input responsible for the estimate named
   ([Cost.explain]). This is the feedback signal adaptive
   re-optimization needs — the ROADMAP item this seeds: a re-planner
   would read the top entry and know *which* NDV or fallback constant to
   distrust. *)

module P = Engine.Physical
module Stats = Engine.Stats
module Json = Engine.Json

type entry = {
  op : string;
  detail : string;
  est : float;
  actual : int;
  loops : int;
  factor : float;  (** max(est/actual, actual/est), both floored at 1 *)
  under : bool;  (** true: model underestimated (actual > est) *)
  inputs : string;  (** responsible statistics, from [Cost.explain] *)
}

(* Rows per evaluation: an estimate is for one evaluation of the operator,
   while [rows_out] accumulates over all of them (an operator under a
   correlated Apply runs once per binding). *)
let per_loop ~actual ~loops = float_of_int actual /. float_of_int (max 1 loops)

(* Symmetric divergence ratio ≥ 1.0; both sides floored at one row so
   "estimated 3, saw 0" is 3× rather than infinite and exact matches on
   empty operators are 1×. *)
let divergence ~est ~actual ~loops =
  let e = Float.max 1.0 est and a = Float.max 1.0 (per_loop ~actual ~loops) in
  Float.max (e /. a) (a /. e)

(* Walk plan and annotation tree in lockstep (same shape by
   construction: [Engine.Analyze.tree_of_plan] + [Cost.annotate]).
   Unannotated nodes (est = nan) are skipped. *)
let rec collect catalog plan (n : Stats.node) acc =
  let acc =
    if Float.is_nan n.Stats.est_rows then acc
    else
      let actual = n.Stats.counters.Stats.rows_out and loops = n.Stats.loops in
      {
        op = n.Stats.op;
        detail = n.Stats.detail;
        est = n.Stats.est_rows;
        actual;
        loops;
        factor = divergence ~est:n.Stats.est_rows ~actual ~loops;
        under = per_loop ~actual ~loops > n.Stats.est_rows;
        inputs = Cost.explain catalog plan;
      }
      :: acc
  in
  let operands = Engine.Analyze.children plan in
  if List.length operands = List.length n.Stats.children then
    List.fold_left2
      (fun acc p c -> collect catalog p c acc)
      acc operands n.Stats.children
  else acc

let of_query catalog { P.plan; _ } tree =
  collect catalog plan tree []
  |> List.stable_sort (fun a b -> Float.compare b.factor a.factor)

let max_factor = function [] -> 1.0 | e :: _ -> e.factor

(* Entries within this ratio are "fine"; the report lists only the ones
   above it and summarizes the rest, so well-estimated plans stay
   one line. Overridable per report (CLI: --misest-floor). *)
let noise = 1.5

let pp ?(floor = noise) ppf entries =
  let noise = Float.max 1.0 floor in
  let bad = List.filter (fun e -> e.factor >= noise) entries in
  let ok = List.length entries - List.length bad in
  Fmt.pf ppf "@[<v>misestimation (worst est-vs-actual first):";
  List.iter
    (fun e ->
      Fmt.pf ppf "@,  %.1f× %s  %s%s: est=%.0f actual=%d%s@,      inputs: %s"
        e.factor
        (if e.under then "under" else "over")
        e.op
        (if e.detail = "" then "" else " " ^ e.detail)
        e.est e.actual
        (if e.loops > 1 then
           Printf.sprintf " (%.1f per loop over %d loops)"
             (per_loop ~actual:e.actual ~loops:e.loops)
             e.loops
         else "")
        e.inputs)
    bad;
  (match bad, ok with
  | [], 0 -> Fmt.pf ppf "@,  (no annotated operators)"
  | [], n -> Fmt.pf ppf "@,  all %d operators within %.1f× of estimate" n noise
  | _, 0 -> ()
  | _, n -> Fmt.pf ppf "@,  (%d more within %.1f× of estimate)" n noise);
  Fmt.pf ppf "@]"

let entry_to_json e =
  Json.Obj
    [
      ("op", Json.String e.op);
      ("detail", Json.String e.detail);
      ("est_rows", Json.Float e.est);
      ("rows_out", Json.Int e.actual);
      ("loops", Json.Int e.loops);
      ("factor", Json.Float e.factor);
      ("direction", Json.String (if e.under then "under" else "over"));
      ("inputs", Json.String e.inputs);
    ]

let to_json entries = Json.List (List.map entry_to_json entries)
