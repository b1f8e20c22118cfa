(** Misestimation report: operators of an instrumented run ranked by
    est-vs-actual cardinality divergence, with the responsible
    [Cobj.Stats]/{!Cost} inputs named — the feedback signal for the
    ROADMAP's adaptive re-optimization item. *)

type entry = {
  op : string;
  detail : string;
  est : float;
  actual : int;  (** rows produced, summed over all loops *)
  loops : int;
  factor : float;
      (** symmetric divergence [max(est/a, a/est)] of the per-evaluation
          estimate against [a = actual / loops], the rows of one
          evaluation; both sides floored at one row, so always ≥ 1.0 *)
  under : bool;  (** the model underestimated ([a > est]) *)
  inputs : string;  (** where the estimate came from ({!Cost.explain}) *)
}

val of_query :
  Cobj.Catalog.t ->
  Engine.Physical.query ->
  Engine.Stats.node ->
  entry list
(** Entries for every annotated operator, worst divergence first. The
    annotation tree must mirror the plan ([Engine.Analyze.tree_of_query]
    after [Cost.annotate] and an instrumented run). *)

val max_factor : entry list -> float
(** Divergence of the worst operator (1.0 for an empty report). *)

val noise : float
(** Default noise floor (1.5): entries within this divergence of their
    estimate are considered well-estimated. *)

val pp : ?floor:float -> entry list Fmt.t
(** Ranked text report; operators within [floor] (default {!noise}) of
    their estimate are summarized in one line rather than listed. Floors
    below 1.0 are clamped to 1.0 (a divergence factor is never smaller). *)

val to_json : entry list -> Engine.Json.t
