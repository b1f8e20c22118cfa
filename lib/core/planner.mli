(** Physical planning: implementation selection for logical operators.

    For every join-like node the planner tries to split the predicate into
    equi-key pairs ({!Kim.equi_split}); when it succeeds, hash- and
    sort-merge implementations compete with nested loops on {!Cost.cost},
    otherwise nested loops is the only legal choice. Per the paper's §6
    restriction, the hash nest join builds on the {b right} operand; the
    left-build streaming variant is selected only when the right key is a
    declared key of a right-side base table ([Table.key]).

    Uncorrelated Apply subqueries are always memoized (they are constants of
    the ambient environment); correlated ones keep naive re-evaluation unless
    [memo_applies] is set (ablation E6). With [memo_applies] and
    [use_indexes], a filter over a base-table scan that holds a correlated
    equality [var.field = e] ([e] reads only enclosing variables) also gets
    an index-join-over-unit candidate: one probe of the table's cached index
    per evaluation instead of a scan, the other conjuncts as residual. *)

type impl_force =
  | Auto            (** cost-based choice *)
  | Force_nl
  | Force_hash
  | Force_merge

type options = {
  force : impl_force;
  memo_applies : bool;  (** memoize correlated applies too *)
  use_indexes : bool;
      (** allow index-join variants when the right operand is a bare base
          table and the key is a plain field, and (with [memo_applies]) for
          correlated equality filters over a base table (default true;
          [force] modes other than [Auto] exclude them) *)
}

val default_options : options

val plan :
  ?options:options -> Cobj.Catalog.t -> Algebra.Plan.plan -> Engine.Physical.t

val query :
  ?options:options ->
  Cobj.Catalog.t ->
  Algebra.Plan.query ->
  Engine.Physical.query
