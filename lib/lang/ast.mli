(** Abstract syntax of the TM-like query language.

    The language is an orthogonal SQL extension in the style of the paper's
    TM (and of HDBL): the SELECT, FROM and WHERE positions of an SFW block
    accept arbitrary correctly-typed expressions, including other SFW blocks;
    predicates may use quantifiers, aggregate functions and set comparisons;
    [e WITH v = e'] introduces a local definition (the paper uses WITH to name
    subquery results). *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or
  | Mem                          (** [e IN s] — set membership ∈ *)
  | Union | Inter | Diff
  | Subset | Subseteq | Supset | Supseteq

type unop = Not | Neg

type agg = Count | Sum | Min | Max | Avg

type quant = Exists | Forall

type expr =
  | Const of Cobj.Value.t
  | Var of string
  | TableRef of string           (** a catalog extension, e.g. EMP *)
  | Field of expr * string       (** [e.l] *)
  | TupleE of (string * expr) list
  | SetE of expr list
  | ListE of expr list
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Agg of agg * expr
  | Quant of quant * string * expr * expr
      (** [Quant (q, v, s, p)] — ∃/∀ [v] ∈ [s] ([p]) *)
  | Let of string * expr * expr
      (** [Let (v, def, body)] — concrete syntax [body WITH v = def] *)
  | UnnestE of expr              (** UNNEST(s) = ⋃{x | x ∈ s} *)
  | If of expr * expr * expr     (** IF c THEN a ELSE b *)
  | VariantE of string * expr    (** construction [tag ! e] *)
  | IsTag of expr * string       (** [e IS tag] — tag test *)
  | AsTag of expr * string       (** [e AS tag] — payload projection;
                                     a run-time error on other tags *)
  | Sfw of sfw

and sfw = {
  select : expr;
  from : (string * expr) list;
      (** [(v, operand)] pairs; later operands may refer to earlier
          variables (dependent iteration, e.g. [FROM DEPT d, d.emps e]) *)
  where : expr option;
}

(** {1 Constructors and helpers} *)

val sfw : ?where:expr -> select:expr -> (string * expr) list -> expr
val vint : int -> expr
val vstr : string -> expr
val vbool : bool -> expr
val empty_set : expr
val path : string -> string list -> expr
(** [path "x" ["a"; "b"]] is [x.a.b]. *)

val conj : expr list -> expr
(** Conjunction; [conj []] is [true]. *)

val disj : expr list -> expr

(** {1 Analysis} *)

module String_set : Set.S with type elt = string

val free_vars : expr -> String_set.t
(** Free variables. [TableRef] names are not variables. Quantifiers, WITH
    and SFW FROM clauses bind. *)

val occurs_free : string -> expr -> bool

val subst : string -> expr -> expr -> expr
(** [subst x e body] — capture-avoiding substitution of [e] for free [x].
    Binders that would capture free variables of [e] are alpha-renamed. *)

val rename_binders_away_from : String_set.t -> expr -> expr
(** Alpha-rename all binders so they avoid the given set (and remain
    pairwise fresh against it). *)

val fresh : String_set.t -> string -> string
(** [fresh avoid base] — [base], or [base'], [base''], … not in [avoid]. *)

val resolve_tables : Cobj.Catalog.t -> expr -> expr
(** Convert free [Var] occurrences whose name is a catalog extension into
    [TableRef]. Bound variables shadow table names. *)

val equal : expr -> expr -> bool
(** Structural equality. *)

val size : expr -> int
(** Number of AST nodes (used by tests and the cost model). *)

val all_vars : expr -> String_set.t
(** Every identifier occurring in the expression, free or bound — for
    callers that must invent globally fresh names. *)

val tables : expr -> String_set.t
(** The catalog extensions an expression reads: its [TableRef] names (so
    only what {!resolve_tables} has resolved). *)
