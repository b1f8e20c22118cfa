module Value = Cobj.Value
module Env = Cobj.Env
module Ast = Lang.Ast
module Interp = Lang.Interp
module P = Physical

module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* A join key paired with its [Value.hash], computed exactly once per row
   and reused for the Bloom filter, the partition index and the hash-table
   insert/probe (Hashtbl.Make calls [Hkey.hash], which is now a field
   read — no rehash of the value). *)
module Hkey = struct
  type t = { h : int; v : Value.t }

  let equal a b = a.h = b.h && Value.equal a.v b.v
  let hash k = k.h
end

module Htbl = Hashtbl.Make (Hkey)

let hkey v = { Hkey.h = Value.hash v; v }

module Sset = Ast.String_set

(* Free (correlation) variables of physical plans, mirroring
   [Algebra.Plan.free_vars]. *)
let rec free_vars plan =
  let expr_free bound e = Sset.diff (Ast.free_vars e) bound in
  let bound_of p = Sset.of_list (P.vars_of p) in
  let binary_keys left right lkey rkey residual =
    let lb = bound_of left and rb = bound_of right in
    let both = Sset.union lb rb in
    Sset.union
      (Sset.union (free_vars left) (free_vars right))
      (Sset.union
         (Sset.union (expr_free lb lkey) (expr_free rb rkey))
         (match residual with
         | None -> Sset.empty
         | Some r -> expr_free both r))
  in
  match plan with
  | P.Unit_row | P.Scan _ -> Sset.empty
  | P.Filter { pred; input } ->
    Sset.union (free_vars input) (expr_free (bound_of input) pred)
  | P.Nl_join { pred; left; right }
  | P.Nl_semijoin { pred; left; right; _ }
  | P.Nl_outerjoin { pred; left; right } ->
    Sset.union
      (Sset.union (free_vars left) (free_vars right))
      (expr_free (Sset.union (bound_of left) (bound_of right)) pred)
  | P.Hash_join { lkey; rkey; residual; left; right }
  | P.Merge_join { lkey; rkey; residual; left; right }
  | P.Hash_semijoin { lkey; rkey; residual; left; right; _ }
  | P.Merge_semijoin { lkey; rkey; residual; left; right; _ }
  | P.Hash_outerjoin { lkey; rkey; residual; left; right }
  | P.Merge_outerjoin { lkey; rkey; residual; left; right } ->
    binary_keys left right lkey rkey residual
  | P.Nl_nestjoin { pred; func; left; right; _ } ->
    let both = Sset.union (bound_of left) (bound_of right) in
    Sset.union
      (Sset.union (free_vars left) (free_vars right))
      (Sset.union (expr_free both pred) (expr_free both func))
  | P.Hash_nestjoin { lkey; rkey; residual; func; left; right; _ }
  | P.Hash_nestjoin_left { lkey; rkey; residual; func; left; right; _ }
  | P.Merge_nestjoin { lkey; rkey; residual; func; left; right; _ } ->
    let both = Sset.union (bound_of left) (bound_of right) in
    Sset.union
      (binary_keys left right lkey rkey residual)
      (expr_free both func)
  | P.Unnest_op { expr; input; _ } ->
    Sset.union (free_vars input) (expr_free (bound_of input) expr)
  | P.Nest_op { func; input; _ } ->
    Sset.union (free_vars input) (expr_free (bound_of input) func)
  | P.Extend_op { expr; input; _ } ->
    Sset.union (free_vars input) (expr_free (bound_of input) expr)
  | P.Project_op { input; _ } -> free_vars input
  | P.Apply_op { subquery; input; _ } ->
    Sset.union (free_vars input)
      (Sset.diff (query_free_vars subquery) (bound_of input))
  | P.Union_op { left; right } ->
    Sset.union (free_vars left) (free_vars right)
  | P.Index_join { lkey; residual; left; var; _ }
  | P.Index_semijoin { lkey; residual; left; var; _ } ->
    let lb = bound_of left in
    Sset.union (free_vars left)
      (Sset.union (expr_free lb lkey)
         (match residual with
         | None -> Sset.empty
         | Some r -> expr_free (Sset.add var lb) r))
  | P.Index_nestjoin { lkey; residual; func; left; var; _ } ->
    let lb = bound_of left in
    let both = Sset.add var lb in
    Sset.union (free_vars left)
      (Sset.union (expr_free lb lkey)
         (Sset.union (expr_free both func)
            (match residual with
            | None -> Sset.empty
            | Some r -> expr_free both r)))

and query_free_vars { P.plan; result } =
  Sset.union (free_vars plan)
    (Sset.diff (Ast.free_vars result) (Sset.of_list (P.vars_of plan)))

let no_stats = Stats.create ()

let pad_nulls rvars l =
  List.fold_left (fun acc v -> Env.bind v Value.Null acc) l rvars

(* All scalar expressions appearing in a physical query (preds, keys,
   residuals, functions, results — including nested applies). *)
let rec exprs_of_plan plan acc =
  match plan with
  | P.Unit_row | P.Scan _ -> acc
  | P.Filter { pred; input } -> exprs_of_plan input (pred :: acc)
  | P.Nl_join { pred; left; right }
  | P.Nl_semijoin { pred; left; right; _ }
  | P.Nl_outerjoin { pred; left; right } ->
    exprs_of_plan left (exprs_of_plan right (pred :: acc))
  | P.Hash_join { lkey; rkey; residual; left; right }
  | P.Merge_join { lkey; rkey; residual; left; right }
  | P.Hash_semijoin { lkey; rkey; residual; left; right; _ }
  | P.Merge_semijoin { lkey; rkey; residual; left; right; _ }
  | P.Hash_outerjoin { lkey; rkey; residual; left; right }
  | P.Merge_outerjoin { lkey; rkey; residual; left; right } ->
    let acc = lkey :: rkey :: Option.to_list residual @ acc in
    exprs_of_plan left (exprs_of_plan right acc)
  | P.Nl_nestjoin { pred; func; left; right; _ } ->
    exprs_of_plan left (exprs_of_plan right (pred :: func :: acc))
  | P.Hash_nestjoin { lkey; rkey; residual; func; left; right; _ }
  | P.Hash_nestjoin_left { lkey; rkey; residual; func; left; right; _ }
  | P.Merge_nestjoin { lkey; rkey; residual; func; left; right; _ } ->
    let acc = lkey :: rkey :: func :: Option.to_list residual @ acc in
    exprs_of_plan left (exprs_of_plan right acc)
  | P.Unnest_op { expr; input; _ } | P.Extend_op { expr; input; _ } ->
    exprs_of_plan input (expr :: acc)
  | P.Nest_op { func; input; _ } -> exprs_of_plan input (func :: acc)
  | P.Project_op { input; _ } -> exprs_of_plan input acc
  | P.Apply_op { subquery; input; _ } ->
    exprs_of_plan input
      (exprs_of_plan subquery.P.plan (subquery.P.result :: acc))
  | P.Union_op { left; right } -> exprs_of_plan left (exprs_of_plan right acc)
  | P.Index_join { lkey; residual; left; _ }
  | P.Index_semijoin { lkey; residual; left; _ } ->
    exprs_of_plan left ((lkey :: Option.to_list residual) @ acc)
  | P.Index_nestjoin { lkey; residual; func; left; _ } ->
    exprs_of_plan left ((lkey :: func :: Option.to_list residual) @ acc)

let exprs_of_query { P.plan; result } = exprs_of_plan plan [ result ]

(* Correlation-column analysis for apply memoization: the cache key should
   be the values of the field paths through which the subquery reads the
   outer row (e.g. [x.b]), not the whole outer tuple — otherwise a cache
   keyed on distinct rows never hits. For each correlation variable we
   collect the maximal [Field] chains rooted at it; a bare occurrence
   forces keying on the whole variable. Occurrences shadowed by inner
   binders are collected too — that only refines the key, which is safe. *)
let correlation_key_exprs corr query =
  let bare = Hashtbl.create 8 in
  let paths = Hashtbl.create 8 in
  let rec root_chain e =
    match e with
    | Ast.Var v -> Some (v, "")
    | Ast.Field (e1, l) ->
      Option.map (fun (v, c) -> (v, c ^ "." ^ l)) (root_chain e1)
    | _ -> None
  in
  let rec collect e =
    match e with
    | Ast.Var v -> if Sset.mem v corr then Hashtbl.replace bare v ()
    | Ast.Field (e1, _) -> begin
      match root_chain e with
      | Some (v, chain) when Sset.mem v corr ->
        Hashtbl.replace paths (v, chain) e
      | Some _ -> ()
      | None -> collect e1
    end
    | Ast.Const _ | Ast.TableRef _ -> ()
    | Ast.TupleE fields -> List.iter (fun (_, e1) -> collect e1) fields
    | Ast.SetE es | Ast.ListE es -> List.iter collect es
    | Ast.Unop (_, e1) | Ast.Agg (_, e1) | Ast.UnnestE e1
    | Ast.VariantE (_, e1) | Ast.IsTag (e1, _) | Ast.AsTag (e1, _) ->
      collect e1
    | Ast.If (c, a, b) ->
      collect c;
      collect a;
      collect b
    | Ast.Binop (_, a, b) ->
      collect a;
      collect b
    | Ast.Quant (_, _, s, p) ->
      collect s;
      collect p
    | Ast.Let (_, d, b) ->
      collect d;
      collect b
    | Ast.Sfw { select; from; where } ->
      collect select;
      List.iter (fun (_, op) -> collect op) from;
      Option.iter collect where
  in
  List.iter collect (exprs_of_query query);
  Sset.elements corr
  |> List.concat_map (fun v ->
         if Hashtbl.mem bare v then [ Ast.Var v ]
         else begin
           let own =
             Hashtbl.fold
               (fun (v', _) e acc -> if String.equal v v' then e :: acc else acc)
               paths []
           in
           match own with [] -> [ Ast.Var v ] | _ :: _ -> own
         end)

(* --- instrumentation frames --------------------------------------------- *)

(* A frame names the counter sink for the operator being executed and, when
   instrumenting, the matching annotation node. Uninstrumented runs share a
   single global sink for every operator (the legacy [?stats] behaviour);
   instrumented runs give each operator its own [Stats.node], descending
   the annotation tree in lockstep with the plan ([Analyze.children]
   order). [jobs] is the domain count: it only sets how many partitions
   [hash_core] splits the hash-join family into, and those partitions run
   on a domain pool (operands are still produced serially, so child
   counters and timings are untouched). [bloom] enables
   sideways information passing in the hash-join family: build sides
   populate a Bloom filter consulted before each probe. Pruned probes still
   count in [hash_probes], so disabling bloom changes only the bloom
   counters, never the rest of a Stats tree. [batch] is the physical
   batch width of the columnar engine. *)
type frame = { sink : Stats.t; node : Stats.node option; jobs : int;
               bloom : bool; batch : int }

let child_frame fr i =
  match fr.node with
  | None -> fr
  | Some n -> (
    match List.nth_opt n.Stats.children i with
    | Some c -> { fr with sink = c.Stats.counters; node = Some c }
    | None -> fr)

let c0 fr = child_frame fr 0
let c1 fr = child_frame fr 1
let clock = Monotonic_clock.now

(* --- columnar batch engine ------------------------------------------------ *)

let default_batch_size = 1024

(* Kept only because the benchmark header prints it; the columnar engine
   is the sole executor of the vectorizable fragment. *)
let default_vector () = true

let default_batch () =
  match Sys.getenv_opt "NESTQL_BATCH" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n > 0 -> n
    | _ -> default_batch_size)
  | None -> default_batch_size

(* The vectorizable fragment: operators [exec_batches] implements, and
   the only executor they have. Everything else runs in [exec_rows],
   with batches materialized at the boundary. *)
let vectorizable = function
  | P.Scan _ | P.Filter _ | P.Extend_op _ | P.Project_op _ | P.Hash_join _
  | P.Hash_semijoin _ | P.Hash_outerjoin _ | P.Hash_nestjoin _ ->
    true
  | _ -> false

(* Recorded by filter and extend only; a hash-join key kernel that
   misses falls back to its row closure without a count. *)
let note_fallback () =
  if Obs.Metrics.enabled () then Obs.Metrics.incr "exec.batch.kernel_fallbacks"

(* Evaluate a key expression over a batch: kernel when possible, row
   closure otherwise.  A kernel that raises is discarded before any
   probe ran, so replaying row-at-a-time reproduces the per-row
   counters and first error exactly. *)
let key_col kern b =
  match kern with
  | Some k when Batch.is_cols b -> (
    match k b with
    | c -> `Col c
    | exception (Value.Type_error _ | Interp.Undefined _) -> `RowWise)
  | _ -> `RowWise

let key_at keyv keyfn b i =
  match keyv with
  | `Col c -> Batch.get c i
  | `RowWise -> keyfn (Batch.env_at b i)

(* --- the hash-join core -------------------------------------------------- *)

let join_min = 2 (* below this many probe rows a join uses one partition *)

(* Residual compiled once per operator; each evaluation counts into the
   sink it is given (a partition's private one inside [hash_core]). *)
let residual_fn catalog = function
  | None -> fun _ _ -> true
  | Some pred ->
    let f = Compile.pred catalog pred in
    fun (st : Stats.t) merged ->
      st.Stats.predicate_evals <- st.Stats.predicate_evals + 1;
      f merged

(* The one hash join behind the whole family: join, semi/antijoin,
   outerjoin and both nest joins differ only in [emit]. [jobs] only picks
   the partition count: one at [jobs = 1] or below [join_min] probe rows,
   else [2 * jobs].

   Build: each build row is keyed once; its hash goes into the one Bloom
   filter, filled here on the calling domain, and picks the partition
   whose table the row joins. The tables are filled under [Pool.run].

   Probe, one batch at a time: the batch is keyed by the key kernel, or
   row by row when the kernel misses or raises. A key the filter rules
   out emits its empty-match output at once; every other slot is probed
   by its partition under [Pool.run], which hands the slot's matches, in
   build-input order, to [emit st b i matches] with the partition's
   private sink [st]. The sinks merge in partition order and each
   output is dealt back to its slot, so the result (per probe batch,
   the [emit] output of each live slot in slot order) and every counter
   but the two partition ones are the same at every [jobs]. *)
let hash_core fr catalog ~build_key ~probe_key ~emit build probe =
  let stats = fr.sink in
  let nparts =
    if fr.jobs = 1 || Batch.live_total probe < join_min then 1
    else 2 * fr.jobs
  in
  let part k = k.Hkey.h land max_int mod nparts in
  let build_keyfn = Compile.expr catalog build_key in
  let filter =
    if fr.bloom then Some (Bloom.create (List.length build)) else None
  in
  (* Each [rparts.(p)] is in reverse input order, so prepending its rows
     to their buckets leaves every bucket in input order. *)
  let rparts = Array.make nparts [] and sizes = Array.make nparts 0 in
  List.iter
    (fun r ->
      stats.Stats.hash_builds <- stats.Stats.hash_builds + 1;
      let k = hkey (build_keyfn r) in
      Option.iter (fun f -> Bloom.add f k.Hkey.h) filter;
      let p = part k in
      rparts.(p) <- (r, k) :: rparts.(p);
      sizes.(p) <- sizes.(p) + 1)
    build;
  let tables = Array.init nparts (fun _ -> Htbl.create 256) in
  Pool.run ~jobs:fr.jobs nparts (fun p ->
      let table = tables.(p) in
      List.iter
        (fun (r, k) ->
          match Htbl.find_opt table k with
          | Some bucket -> Htbl.replace table k (r :: bucket)
          | None -> Htbl.add table k [ r ])
        rparts.(p));
  if nparts > 1 then begin
    (* The largest build partition bounds the parallel speedup: record it
       on the operator, and the whole distribution as a histogram. *)
    stats.Stats.partitions <- stats.Stats.partitions + nparts;
    Array.iter
      (fun rows ->
        stats.Stats.partition_max_rows <-
          max stats.Stats.partition_max_rows rows;
        if Obs.Metrics.enabled () then
          Obs.Metrics.observe "par.partition_build_rows" rows)
      sizes
  end;
  let probe_keyfn = Compile.expr catalog probe_key in
  let kern = Vexpr.compile catalog probe_key in
  List.map
    (fun b ->
      (* [route.(i)] is the partition that probes slot [i], or [nparts]
         when the filter pruned it; [outs.(p)] holds what [emit] gave
         partition [p]'s slots, in slot order. Outputs stay in lists:
         an array of them as long as a batch would sit in the major
         heap and promote every row stored into it. *)
      let route = Array.make b.Batch.len nparts in
      let slots = Array.make nparts [] in
      let outs = Array.make (nparts + 1) [] in
      let keyv = key_col kern b in
      Batch.iter_live b (fun i ->
          stats.Stats.hash_probes <- stats.Stats.hash_probes + 1;
          let k = hkey (key_at keyv probe_keyfn b i) in
          let pruned =
            match filter with
            | None -> false
            | Some f ->
              stats.Stats.bloom_checks <- stats.Stats.bloom_checks + 1;
              not (Bloom.mem f k.Hkey.h)
          in
          if pruned then begin
            stats.Stats.bloom_prunes <- stats.Stats.bloom_prunes + 1;
            outs.(nparts) <- emit stats b i [] :: outs.(nparts)
          end
          else begin
            let p = part k in
            route.(i) <- p;
            slots.(p) <- (i, k) :: slots.(p)
          end);
      outs.(nparts) <- List.rev outs.(nparts);
      let sinks = Array.init nparts (fun _ -> Stats.create ()) in
      Pool.run ~jobs:fr.jobs nparts (fun p ->
          let st = sinks.(p) and table = tables.(p) in
          outs.(p) <-
            List.map
              (fun (i, k) ->
                let matches =
                  match Htbl.find_opt table k with Some ms -> ms | None -> []
                in
                emit st b i matches)
              (List.rev slots.(p)));
      Array.iter (fun st -> Stats.add ~into:stats st) sinks;
      let acc = ref [] in
      Batch.iter_live b (fun i ->
          let p = route.(i) in
          acc := List.hd outs.(p) :: !acc;
          outs.(p) <- List.tl outs.(p));
      List.rev !acc)
    probe

(* Everything [hash_core] emitted, in probe order. *)
let flatten per_batch = List.concat (List.concat per_batch)

(* Merged rows are always append(right row, left row), whichever side
   probes: [probe_left] merges a left probe row with a right match, and
   [Env.append] a right probe row with a left match. *)
let probe_left l r = Env.append r l

(* The probe row [p] merged with each of its matches that passes the
   residual [rok]. *)
let join_matches rok st merge p matches =
  List.filter_map
    (fun m ->
      let merged = merge p m in
      if rok st merged then Some merged else None)
    matches

(* Run one operator, charging its wall-clock and loop count to its
   annotation node when instrumenting. [live] counts the output rows for
   the trace span. *)
let timed fr ~vectorized ~live exec =
  match fr.node with
  | None -> exec ()
  | Some n ->
    let t0 = clock () in
    let out = exec () in
    let t1 = clock () in
    n.Stats.time_ns <- Int64.add n.Stats.time_ns (Int64.sub t1 t0);
    n.Stats.loops <- n.Stats.loops + 1;
    if vectorized then n.Stats.vectorized <- true;
    (* Instrumented operators double as trace spans — same clock readings,
       so the timeline agrees with EXPLAIN ANALYZE to the nanosecond. *)
    if Obs.Trace.enabled () then
      Obs.Trace.complete ~cat:"operator" ~start_ns:t0 ~stop_ns:t1
        ~args:(fun () ->
          [
            ("detail", Obs.Trace.Str n.Stats.detail);
            ("rows_out", Obs.Trace.Int (live out));
            ("loop", Obs.Trace.Int n.Stats.loops);
            ("est_rows", Obs.Trace.Num n.Stats.est_rows);
          ])
        n.Stats.op;
    out

let rec rows_fr fr catalog env plan =
  if vectorizable plan then
    (* The vectorized operator already timed and traced itself inside
       [batches_fr]; materialization at the boundary is not charged. *)
    Batch.rows_of_batches (batches_fr fr catalog env plan)
  else
    timed fr ~vectorized:false ~live:List.length (fun () ->
        exec_rows fr catalog env plan)

(* Batch-flow entry: vectorizable operators produce batches natively;
   anything else runs in [exec_rows] and is chunked at the boundary. *)
and batches_fr fr catalog env plan =
  if vectorizable plan then begin
    let out =
      timed fr ~vectorized:true ~live:Batch.live_total (fun () ->
          exec_batches fr catalog env plan)
    in
    if Obs.Metrics.enabled () then begin
      Obs.Metrics.incr ~by:(List.length out) "exec.batch.batches";
      Obs.Metrics.incr ~by:(Batch.live_total out) "exec.batch.rows"
    end;
    out
  end
  else Batch.of_rows ~size:fr.batch (rows_fr fr catalog env plan)

(* The columnar engine proper, sole executor of the vectorizable
   fragment.  For every operator below, the produced rows (in order)
   and every [Stats] counter but the partition ones are the same at any
   [jobs] and any batch width — the qcheck oracle in [test_batch]
   enforces this, and checks values against the reference interpreter.
   Expression kernels that miss or raise fall back to the row-compiled
   closures, replayed in row order. *)
and exec_batches fr catalog env plan =
  let stats = fr.sink in
  let out, nout =
    match plan with
    | P.Scan { table; var } ->
      let t = Cobj.Catalog.find_exn table catalog in
      let trows = Cobj.Table.rows t in
      (Batch.of_values ~size:fr.batch var env trows, List.length trows)
    | P.Filter { pred; input } ->
      let predfn = Compile.pred catalog pred in
      let kern = Vexpr.compile catalog pred in
      let inb = batches_fr (c0 fr) catalog env input in
      let n = ref 0 in
      let out =
        List.filter_map
          (fun b ->
            let row_sel () =
              note_fallback ();
              let acc = ref [] in
              Batch.iter_live b (fun i ->
                  stats.Stats.predicate_evals <-
                    stats.Stats.predicate_evals + 1;
                  if predfn (Batch.env_at b i) then acc := i :: !acc);
              Array.of_list (List.rev !acc)
            in
            let sel =
              match kern with
              | Some k when Batch.is_cols b -> (
                match Vexpr.truth_sel k b with
                | sel ->
                  stats.Stats.predicate_evals <-
                    stats.Stats.predicate_evals + Batch.live b;
                  sel
                | exception (Value.Type_error _ | Interp.Undefined _) ->
                  row_sel ())
              | _ -> row_sel ()
            in
            n := !n + Array.length sel;
            if Array.length sel = 0 then None else Some (Batch.narrow b sel))
          inb
      in
      (out, !n)
    | P.Extend_op { var; expr; input } ->
      let exprfn = Compile.expr catalog expr in
      let kern = Vexpr.compile catalog expr in
      let inb = batches_fr (c0 fr) catalog env input in
      let n = ref 0 in
      let out =
        List.map
          (fun b ->
            n := !n + Batch.live b;
            let row_ext () =
              note_fallback ();
              let acc = ref [] in
              Batch.iter_live b (fun i ->
                  let r = Batch.env_at b i in
                  acc := Env.bind var (exprfn r) r :: !acc);
              Batch.of_rows_array (Array.of_list (List.rev !acc))
            in
            match kern with
            | Some k when Batch.is_cols b -> (
              match k b with
              | c -> Batch.add_col b var c
              | exception (Value.Type_error _ | Interp.Undefined _) ->
                row_ext ())
            | _ -> row_ext ())
          inb
      in
      (out, !n)
    | P.Project_op { vars; input } ->
      let inb = batches_fr (c0 fr) catalog env input in
      let acc = ref [] in
      List.iter
        (fun b ->
          Batch.iter_live b (fun i ->
              acc :=
                Env.append (Env.project vars (Batch.env_at b i)) env :: !acc))
        inb;
      let rows = List.sort_uniq Env.compare (List.rev !acc) in
      (Batch.of_rows ~size:fr.batch rows, List.length rows)
    | P.Hash_join { lkey; rkey; residual; left; right } ->
      let lb = batches_fr (c0 fr) catalog env left in
      let rb = batches_fr (c1 fr) catalog env right in
      let nl = Batch.live_total lb and nr = Batch.live_total rb in
      (* The join is commutative, so build on whichever operand turned out
         smaller (the planner orients statically from estimates; this is
         the runtime safety net). The decision uses full cardinalities, so
         counters stay jobs-invariant; only row order can change. *)
      let swap = nr > nl in
      if swap then
        stats.Stats.build_side_swaps <- stats.Stats.build_side_swaps + 1;
      let probe_b, build_b, probe_key, build_key =
        if swap then (rb, lb, rkey, lkey) else (lb, rb, lkey, rkey)
      in
      let merged_of = if swap then Env.append else probe_left in
      let rok = residual_fn catalog residual in
      let out_rows =
        hash_core fr catalog ~build_key ~probe_key
          ~emit:(fun st b i matches ->
            match matches with
            | [] -> []
            | _ :: _ ->
              (* Late materialization: the probe env is only built once
                 the Bloom screen and table lookup found matches. *)
              join_matches rok st merged_of (Batch.env_at b i) matches)
          (Batch.rows_of_batches build_b)
          probe_b
        |> flatten
      in
      (Batch.of_rows ~size:fr.batch out_rows, List.length out_rows)
    | P.Hash_semijoin { lkey; rkey; residual; anti; left; right } ->
      let lb = batches_fr (c0 fr) catalog env left in
      let rok = residual_fn catalog residual in
      let kept =
        hash_core fr catalog ~build_key:rkey ~probe_key:lkey
          ~emit:(fun st b i matches ->
            let found =
              matches <> []
              && (Option.is_none residual
                 ||
                 let l = Batch.env_at b i in
                 List.exists (fun r -> rok st (Env.append r l)) matches)
            in
            if found <> anti then [ i ] else [])
          (rows_fr (c1 fr) catalog env right)
          lb
      in
      (* The output keeps the input's shape: narrowed input batches. *)
      let out =
        List.concat
          (List.map2
             (fun b slots ->
               match List.concat slots with
               | [] -> []
               | sel -> [ Batch.narrow b (Array.of_list sel) ])
             lb kept)
      in
      (out, Batch.live_total out)
    | P.Hash_outerjoin { lkey; rkey; residual; left; right } ->
      let rvars = P.vars_of right in
      let lb = batches_fr (c0 fr) catalog env left in
      let rok = residual_fn catalog residual in
      let out_rows =
        hash_core fr catalog ~build_key:rkey ~probe_key:lkey
          ~emit:(fun st b i matches ->
            let l = Batch.env_at b i in
            match join_matches rok st probe_left l matches with
            | [] -> [ pad_nulls rvars l ]
            | kept -> kept)
          (rows_fr (c1 fr) catalog env right)
          lb
        |> flatten
      in
      (Batch.of_rows ~size:fr.batch out_rows, List.length out_rows)
    | P.Hash_nestjoin { lkey; rkey; residual; func; label; left; right } ->
      let funcfn = Compile.expr catalog func in
      let lb = batches_fr (c0 fr) catalog env left in
      let rok = residual_fn catalog residual in
      let out_rows =
        hash_core fr catalog ~build_key:rkey ~probe_key:lkey
          ~emit:(fun st b i matches ->
            let l = Batch.env_at b i in
            let members =
              List.map funcfn (join_matches rok st probe_left l matches)
            in
            [ Env.bind label (Value.set members) l ])
          (rows_fr (c1 fr) catalog env right)
          lb
        |> flatten
      in
      (Batch.of_rows ~size:fr.batch out_rows, List.length out_rows)
    | _ ->
      (* [vectorizable] gates every entry into this function. *)
      assert false
  in
  stats.Stats.rows_out <- stats.Stats.rows_out + nout;
  out

and exec_rows fr catalog env plan =
  let stats = fr.sink in
  let out =
    match plan with
    | P.Unit_row -> [ env ]
    | P.Nl_join { pred; left; right } ->
      let predfn = Compile.pred catalog pred in
      let rrows = rows_fr (c1 fr) catalog env right in
      rows_fr (c0 fr) catalog env left
      |> List.concat_map (fun l ->
             List.filter_map
               (fun r ->
                 stats.Stats.predicate_evals <-
                   stats.Stats.predicate_evals + 1;
                 let merged = Env.append r l in
                 if predfn merged then Some merged else None)
               rrows)
    | P.Merge_join { lkey; rkey; residual; left; right } ->
      let rok = residual_fn catalog residual stats in
      let lgroups = sorted_groups ~stats (c0 fr) catalog env left lkey in
      let rgroups = sorted_groups ~stats (c1 fr) catalog env right rkey in
      merge_groups lgroups rgroups
      |> List.concat_map (fun (ls, rs) ->
             List.concat_map
               (fun l ->
                 List.filter_map
                   (fun r ->
                     let merged = Env.append r l in
                     if rok merged then Some merged else None)
                   rs)
               ls)
    | P.Nl_semijoin { pred; anti; left; right } ->
      let predfn = Compile.pred catalog pred in
      let rrows = rows_fr (c1 fr) catalog env right in
      rows_fr (c0 fr) catalog env left
      |> List.filter (fun l ->
             let found =
               List.exists
                 (fun r ->
                   stats.Stats.predicate_evals <-
                     stats.Stats.predicate_evals + 1;
                   predfn (Env.append r l))
                 rrows
             in
             if anti then not found else found)
    | P.Merge_semijoin { lkey; rkey; residual; anti; left; right } ->
      let rok = residual_fn catalog residual stats in
      let lgroups = sorted_groups ~stats (c0 fr) catalog env left lkey in
      let rgroups = sorted_groups ~stats (c1 fr) catalog env right rkey in
      (* march the two sorted group lists; every left group is emitted or
         dropped depending on whether a matching right member exists *)
      let rec go ls rs acc =
        match ls with
        | [] -> List.rev acc
        | (lk, lrows) :: ls' ->
          let rec advance rs =
            match rs with
            | (rk, _) :: rs' when Value.compare rk lk < 0 -> advance rs'
            | _ -> rs
          in
          let rs = advance rs in
          let rrows =
            match rs with
            | (rk, rrows) :: _ when Value.compare rk lk = 0 -> rrows
            | _ -> []
          in
          let keep l =
            let matched = List.exists (fun r -> rok (Env.append r l)) rrows in
            if anti then not matched else matched
          in
          go ls' rs (List.rev_append (List.filter keep lrows) acc)
      in
      go lgroups rgroups []
    | P.Nl_outerjoin { pred; left; right } ->
      let predfn = Compile.pred catalog pred in
      let rrows = rows_fr (c1 fr) catalog env right in
      let rvars = P.vars_of right in
      rows_fr (c0 fr) catalog env left
      |> List.concat_map (fun l ->
             let matches =
               List.filter_map
                 (fun r ->
                   stats.Stats.predicate_evals <-
                     stats.Stats.predicate_evals + 1;
                   let merged = Env.append r l in
                   if predfn merged then Some merged else None)
                 rrows
             in
             match matches with [] -> [ pad_nulls rvars l ] | _ :: _ -> matches)
    | P.Merge_outerjoin { lkey; rkey; residual; left; right } ->
      let rok = residual_fn catalog residual stats in
      let rvars = P.vars_of right in
      let lgroups = sorted_groups ~stats (c0 fr) catalog env left lkey in
      let rgroups = sorted_groups ~stats (c1 fr) catalog env right rkey in
      (* every left row survives: matched rows merge, the rest pad *)
      let rec go ls rs acc =
        match ls, rs with
        | [], _ -> List.rev acc
        | (_, lrows) :: ls', [] ->
          go ls' []
            (List.rev_append (List.map (pad_nulls rvars) lrows) acc)
        | (lk, lrows) :: ls', (rk, rrows) :: rs' ->
          let c = Value.compare lk rk in
          if c = 0 then
            let out =
              List.concat_map
                (fun l ->
                  let matches =
                    List.filter_map
                      (fun r ->
                        let merged = Env.append r l in
                        if rok merged then Some merged else None)
                      rrows
                  in
                  match matches with
                  | [] -> [ pad_nulls rvars l ]
                  | _ :: _ -> matches)
                lrows
            in
            go ls' rs' (List.rev_append out acc)
          else if c < 0 then
            go ls' rs
              (List.rev_append (List.map (pad_nulls rvars) lrows) acc)
          else go ls rs' acc
      in
      go lgroups rgroups []
    | P.Nl_nestjoin { pred; func; label; left; right } ->
      let predfn = Compile.pred catalog pred in
      let funcfn = Compile.expr catalog func in
      let rrows = rows_fr (c1 fr) catalog env right in
      rows_fr (c0 fr) catalog env left
      |> List.map (fun l ->
             let members =
               List.filter_map
                 (fun r ->
                   stats.Stats.predicate_evals <-
                     stats.Stats.predicate_evals + 1;
                   let merged = Env.append r l in
                   if predfn merged then Some (funcfn merged) else None)
                 rrows
             in
             Env.bind label (Value.set members) l)
    | P.Hash_nestjoin_left { lkey; rkey; residual; func; label; left; right }
      ->
      (* Streaming right against a left build table: emits a group as soon
         as a right row matches, so it is only correct when [rkey] is unique
         on the right input (§6). Dangling left rows flush at the end. *)
      let rok = residual_fn catalog residual in
      let funcfn = Compile.expr catalog func in
      let lrows = rows_fr (c0 fr) catalog env left in
      let matched =
        hash_core fr catalog ~build_key:lkey ~probe_key:rkey
          ~emit:(fun st b i ls ->
            match ls with
            | [] -> []
            | _ :: _ ->
              let r = Batch.env_at b i in
              List.filter_map
                (fun l ->
                  let merged = Env.append r l in
                  if rok st merged then Some (l, merged) else None)
                ls)
          lrows
          (batches_fr (c1 fr) catalog env right)
        |> flatten
      in
      let matched_keys = Vtbl.create 256 in
      let emitted =
        List.map
          (fun (l, merged) ->
            Vtbl.replace matched_keys (Env.to_value l) ();
            Env.bind label (Value.set [ funcfn merged ]) l)
          matched
      in
      let dangling =
        List.filter_map
          (fun l ->
            if Vtbl.mem matched_keys (Env.to_value l) then None
            else Some (Env.bind label (Value.Set []) l))
          lrows
      in
      emitted @ dangling
    | P.Merge_nestjoin { lkey; rkey; residual; func; label; left; right } ->
      let rok = residual_fn catalog residual stats in
      let funcfn = Compile.expr catalog func in
      let lgroups = sorted_groups ~stats (c0 fr) catalog env left lkey in
      let rgroups = sorted_groups ~stats (c1 fr) catalog env right rkey in
      (* Unlike merge join, every left group survives (possibly with ∅). *)
      let rec go ls rs acc =
        match ls, rs with
        | [], _ -> List.rev acc
        | (lk, lrows) :: ls', [] ->
          let out = List.map (emit_group []) lrows in
          ignore lk;
          go ls' [] (List.rev_append out acc)
        | (lk, lrows) :: ls', (rk, rrows) :: rs' ->
          let c = Value.compare lk rk in
          if c = 0 then
            go ls' rs'
              (List.rev_append (List.map (emit_group rrows) lrows) acc)
          else if c < 0 then
            go ls' rs (List.rev_append (List.map (emit_group []) lrows) acc)
          else go ls rs' acc
      and emit_group rrows l =
        let members =
          List.filter_map
            (fun r ->
              let merged = Env.append r l in
              if rok merged then Some (funcfn merged) else None)
            rrows
        in
        Env.bind label (Value.set members) l
      in
      go lgroups rgroups []
    | P.Unnest_op { expr; var; input } ->
      let exprfn = Compile.expr catalog expr in
      rows_fr (c0 fr) catalog env input
      |> List.concat_map (fun r ->
             Value.elements (exprfn r)
             |> List.map (fun x -> Env.bind var x r))
    | P.Nest_op { by; label; func; nulls; input } ->
      let input_rows = rows_fr (c0 fr) catalog env input in
      let groups = Vtbl.create 64 in
      let order = ref [] in
      List.iter
        (fun r ->
          stats.Stats.hash_builds <- stats.Stats.hash_builds + 1;
          let k = Env.to_value (Env.project by r) in
          match Vtbl.find_opt groups k with
          | Some members -> Vtbl.replace groups k (r :: members)
          | None ->
            order := (k, r) :: !order;
            Vtbl.add groups k [ r ])
        input_rows;
      let funcfn = Compile.expr catalog func in
      let padded r =
        nulls <> []
        && List.for_all (fun v -> Value.equal (Env.find v r) Value.Null) nulls
      in
      List.rev_map
        (fun (k, representative) ->
          let members = Vtbl.find groups k in
          let set =
            Value.set
              (List.filter_map
                 (fun r -> if padded r then None else Some (funcfn r))
                 members)
          in
          let base =
            List.fold_left
              (fun acc v -> Env.bind v (Env.find v representative) acc)
              env by
          in
          Env.bind label set base)
        !order
    | P.Apply_op { var; subquery; memo; input } ->
      let input_rows = rows_fr (c0 fr) catalog env input in
      (* A correlated subplan re-runs inside the apply loop with per-row
         bindings; it conservatively executes serially (its apply loop is
         already the unit of work, and the memo cache is unsynchronized).
         An uncorrelated subplan runs once and may parallelize freely. *)
      let corr =
        Sset.inter (query_free_vars subquery)
          (Sset.of_list (P.vars_of input))
      in
      let subfr =
        let sub = c1 fr in
        if Sset.is_empty corr then sub else { sub with jobs = 1 }
      in
      if not memo then
        List.map
          (fun r ->
            stats.Stats.applies <- stats.Stats.applies + 1;
            Env.bind var (run_under_fr subfr catalog r subquery) r)
          input_rows
      else begin
        let key_exprs = correlation_key_exprs corr subquery in
        let cache = Vtbl.create 64 in
        let key_fns = List.map (Compile.expr catalog) key_exprs in
        List.map
          (fun r ->
            let k = Value.List (List.map (fun f -> f r) key_fns) in
            let v =
              match Vtbl.find_opt cache k with
              | Some v ->
                stats.Stats.apply_hits <- stats.Stats.apply_hits + 1;
                v
              | None ->
                stats.Stats.applies <- stats.Stats.applies + 1;
                let v = run_under_fr subfr catalog r subquery in
                Vtbl.add cache k v;
                v
            in
            Env.bind var v r)
          input_rows
      end
    | P.Index_join { lkey; table; var; field; residual; left } ->
      let lkeyfn = Compile.expr catalog lkey in
      let rok = residual_fn catalog residual stats in
      let t = Cobj.Catalog.find_exn table catalog in
      rows_fr (c0 fr) catalog env left
      |> List.concat_map (fun l ->
             stats.Stats.hash_probes <- stats.Stats.hash_probes + 1;
             Cobj.Table.index_lookup field t (lkeyfn l)
             |> List.filter_map (fun rv ->
                    let merged = Env.bind var rv l in
                    if rok merged then Some merged else None))
    | P.Index_semijoin { lkey; table; var; field; residual; anti; left } ->
      let lkeyfn = Compile.expr catalog lkey in
      let rok = residual_fn catalog residual stats in
      let t = Cobj.Catalog.find_exn table catalog in
      rows_fr (c0 fr) catalog env left
      |> List.filter (fun l ->
             stats.Stats.hash_probes <- stats.Stats.hash_probes + 1;
             let found =
               Cobj.Table.index_lookup field t (lkeyfn l)
               |> List.exists (fun rv -> rok (Env.bind var rv l))
             in
             if anti then not found else found)
    | P.Index_nestjoin { lkey; table; var; field; residual; func; label; left }
      ->
      let lkeyfn = Compile.expr catalog lkey in
      let rok = residual_fn catalog residual stats in
      let funcfn = Compile.expr catalog func in
      let t = Cobj.Catalog.find_exn table catalog in
      rows_fr (c0 fr) catalog env left
      |> List.map (fun l ->
             stats.Stats.hash_probes <- stats.Stats.hash_probes + 1;
             let members =
               Cobj.Table.index_lookup field t (lkeyfn l)
               |> List.filter_map (fun rv ->
                      let merged = Env.bind var rv l in
                      if rok merged then Some (funcfn merged) else None)
             in
             Env.bind label (Value.set members) l)
    | P.Union_op { left; right } ->
      List.sort_uniq Env.compare
        (rows_fr (c0 fr) catalog env left @ rows_fr (c1 fr) catalog env right)
    | P.Scan _ | P.Filter _ | P.Extend_op _ | P.Project_op _ | P.Hash_join _
    | P.Hash_semijoin _ | P.Hash_outerjoin _ | P.Hash_nestjoin _ ->
      (* [rows_fr] routes the vectorizable fragment to [exec_batches]. *)
      assert false
  in
  stats.Stats.rows_out <- stats.Stats.rows_out + List.length out;
  out

and sorted_groups ~stats fr catalog env plan key_expr =
  let keyfn = Compile.expr catalog key_expr in
  let produced = rows_fr fr catalog env plan in
  stats.Stats.sorts <- stats.Stats.sorts + List.length produced;
  let keyed = List.map (fun r -> (keyfn r, r)) produced in
  let sorted =
    List.sort (fun (k1, _) (k2, _) -> Value.compare k1 k2) keyed
  in
  (* Linear pass over the sorted list, grouping equal adjacent keys. *)
  let rec group = function
    | [] -> []
    | (k, r) :: rest ->
      let rec take acc = function
        | (k', r') :: more when Value.equal k k' -> take (r' :: acc) more
        | remaining -> (List.rev acc, remaining)
      in
      let same, others = take [ r ] rest in
      (k, same) :: group others
  in
  group sorted

and merge_groups ls rs =
  match ls, rs with
  | [], _ | _, [] -> []
  | (lk, lrows) :: ls', (rk, rrows) :: rs' ->
    let c = Value.compare lk rk in
    if c = 0 then (lrows, rrows) :: merge_groups ls' rs'
    else if c < 0 then merge_groups ls' rs
    else merge_groups ls rs'

and run_under_fr fr catalog env { P.plan; result } =
  let resultfn = Compile.expr catalog result in
  let produced = rows_fr fr catalog env plan in
  Value.set (List.map resultfn produced)

let clamp_jobs jobs = max 1 (min jobs Pool.max_jobs)

let frame_of_stats ~jobs ~bloom ~batch stats =
  { sink = stats; node = None; jobs = clamp_jobs jobs; bloom;
    batch = max 1 (Option.value batch ~default:(default_batch ())) }

let frame_of_node ~jobs ~bloom ~batch node =
  { (frame_of_stats ~jobs ~bloom ~batch node.Stats.counters) with
    node = Some node }

let rows ?(stats = no_stats) ?(jobs = 1) ?(bloom = true) ?batch catalog env
    plan =
  rows_fr (frame_of_stats ~jobs ~bloom ~batch stats) catalog env plan

let rows_instrumented ?(jobs = 1) ?(bloom = true) ?batch node catalog env plan
    =
  rows_fr (frame_of_node ~jobs ~bloom ~batch node) catalog env plan

let run_under ?(stats = no_stats) ?(jobs = 1) ?(bloom = true) ?batch catalog
    env query =
  run_under_fr (frame_of_stats ~jobs ~bloom ~batch stats) catalog env query

let run ?stats ?jobs ?bloom ?batch catalog query =
  run_under ?stats ?jobs ?bloom ?batch catalog Env.empty query

let run_instrumented ?(jobs = 1) ?(bloom = true) ?batch catalog query =
  let tree = Analyze.tree_of_query query in
  let v =
    run_under_fr (frame_of_node ~jobs ~bloom ~batch tree) catalog Env.empty
      query
  in
  (v, tree)
