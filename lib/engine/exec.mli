(** Executor for physical plans.

    Evaluation is oracle-faithful: for every physical plan [p] obtained from
    a logical plan [l], [rows] agrees with [Algebra.Sem.rows] on [l] up to
    row order (tests enforce this). Work counters are collected into an
    optional {!Stats.t}.

    {b Caveat} (§6 of the paper, exercised by the build-side bench):
    [Hash_nestjoin_left] streams the right operand against a left-side build
    table and is only correct when the right key expression is unique on the
    right input — the planner enforces this; calling it directly without the
    precondition produces un-grouped (wrong) output, which is the point of
    the experiment. *)

val rows :
  ?stats:Stats.t ->
  ?jobs:int ->
  ?bloom:bool ->
  ?batch:int ->
  Cobj.Catalog.t ->
  Cobj.Env.t ->
  Physical.t ->
  Cobj.Env.t list
(** Rows produced under an ambient environment (for correlation variables),
    in implementation order (not canonicalized).

    [jobs] (default 1) is the domain count, and it sets only the
    partition count of the hash-join family (join, semijoin, antijoin,
    outerjoin, nest join and the left-build nest join): one partition at
    [jobs = 1] or below two probe rows, else [2 * jobs]. All five run on
    one core at every [jobs]: build rows are split on their key hash,
    each partition's table is filled on a worker domain, and each probe
    row is probed by the partition holding its key. Every other operator
    (scans, filters, extends and projections included) runs serially.
    Results come back in serial row order and every counter lands on the
    same operator it would serially, so output and statistics are
    identical for every [jobs] value, except [partitions] and
    [partition_max_rows], which are 0 on one partition. Correlated apply
    subplans always execute serially inside their apply loop (classified
    with {!query_free_vars}); values above [Pool.max_jobs] are clamped.

    [bloom] (default true) enables sideways information passing in the
    hash-join family: every build side populates one blocked Bloom
    filter on its keys, on the calling domain (hashes computed once and
    shared with the partition index and the hash table), and each probe
    key is screened against it first — a negative skips the hash lookup
    and never reaches a partition. Output is byte-identical with bloom on
    or off, and so is every [Stats] counter except
    [bloom_checks]/[bloom_prunes] (a pruned probe still counts in
    [hash_probes]). The commutative [Hash_join] additionally builds on the
    smaller operand at runtime ([build_side_swaps]); the one-sided
    operators — semijoin, antijoin, outerjoin, nest join — never swap (§7:
    their left operand is preserved and must stay on the probe side).

    The {!vectorizable} operators run on the columnar batch engine, their
    only executor: scans emit typed column batches, filters narrow
    selection vectors, and the hash-join family probes per batch with
    key kernels and late materialization at every [jobs]. Operators
    outside the fragment run row-at-a-time over environments, with
    batches (re)built at the boundary. Results, row order and every
    [Stats] counter are the same at every batch width. When
    [Compile.enabled] is false, every expression goes through the
    interpreter instead of a kernel.

    [batch] (default {!default_batch}, i.e. [NESTQL_BATCH] or 1024) is
    the physical batch width; values below 1 are clamped to 1. *)

val rows_instrumented :
  ?jobs:int ->
  ?bloom:bool ->
  ?batch:int ->
  Stats.node ->
  Cobj.Catalog.t ->
  Cobj.Env.t ->
  Physical.t ->
  Cobj.Env.t list
(** Like {!rows}, but collecting per-operator counters, loop counts and
    wall-clock into a {!Stats.node} tree (built with
    [Analyze.tree_of_plan] so its shape matches the plan). Summing the tree
    ({!Stats.totals}) yields exactly what {!rows} would have put in a
    global [Stats.t] — under any [jobs]: per-domain counter sets are merged
    back into the owning operator's node in deterministic partition
    order. *)

val run_instrumented :
  ?jobs:int ->
  ?bloom:bool ->
  ?batch:int ->
  Cobj.Catalog.t ->
  Physical.query ->
  Cobj.Value.t * Stats.node
(** Execute a closed physical query under a fresh annotation tree; returns
    the result value and the filled-in tree (est_rows still [nan] — the
    cost model lives upstream, see [Core.Cost.annotate]). *)

val run :
  ?stats:Stats.t ->
  ?jobs:int ->
  ?bloom:bool ->
  ?batch:int ->
  Cobj.Catalog.t ->
  Physical.query ->
  Cobj.Value.t
(** Set value of a closed physical query. *)

val run_under :
  ?stats:Stats.t ->
  ?jobs:int ->
  ?bloom:bool ->
  ?batch:int ->
  Cobj.Catalog.t ->
  Cobj.Env.t ->
  Physical.query ->
  Cobj.Value.t

val query_free_vars : Physical.query -> Lang.Ast.String_set.t
(** Correlation variables a physical query needs from its enclosing scope
    (used for apply memoization). *)

val vectorizable : Physical.t -> bool
(** Whether the operator (shallowly — operands not considered) runs on
    the columnar batch engine. The verifier's [vector-fragment] rule
    cross-checks this against an independent list. *)

val default_vector : unit -> bool
(** Always [true]: the batch engine is the only executor of the
    {!vectorizable} fragment. Kept for the benchmark header, which
    prints it. *)

val default_batch : unit -> int
(** Batch width default: [NESTQL_BATCH] when it parses as a positive
    integer, else 1024. *)
