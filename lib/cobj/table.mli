(** In-memory tables (class extensions).

    A table is a named, duplicate-free collection of values of a common
    element type — the extension of a TM class. Row order is the set order
    of {!Value.compare}, which makes query results deterministic. *)

type t

val create : ?key:string list -> name:string -> elt:Ctype.t -> Value.t list -> t
(** Builds a table. Rows are deduplicated and sorted. Every row must conform
    to [elt] (raises [Invalid_argument] otherwise). [key] optionally declares
    a set of top-level tuple fields whose combination is unique — consulted by
    the physical planner (e.g. the hash nest join may only build on the right
    operand unless the join attribute is a key). The key claim is verified. *)

val name : t -> string
val elt : t -> Ctype.t
val rows : t -> Value.t list
val cardinality : t -> int
val key : t -> string list option
val to_value : t -> Value.t
(** The table's contents as a [Set] value. *)

type attr = {
  ndv : int option;  (** distinct non-null values; [None] on empty tables *)
  null_frac : float;  (** fraction of rows whose value is null or missing *)
  empty_frac : float option;
      (** empty fraction of the collection values; [None] if there are none *)
  avg_card : float option;  (** average collection cardinality; likewise *)
}

type summary = { name : string; rows : int; attrs : (string * attr) list }
(** A table's statistics: the row count and one [attr] per declared tuple
    field, in declaration order (a non-tuple element type yields one [""]). *)

val summary : t -> summary
(** Computed by one pass over the rows on first use, then kept: later calls
    return the same value. Domain-safe: a domain racing the first
    computation computes the same value again. *)

val scan_summary : t -> summary
(** A fresh pass, bypassing the kept summary. *)

val index_lookup : string -> t -> Value.t -> Value.t list
(** [index_lookup field t v] — the rows whose top-level [field] equals [v],
    via a hash index built on first use and cached for the table's lifetime
    (tables are immutable). Rows lacking the field are simply absent from
    the index. Probing is O(1); the index powers the engine's index-join
    operators. Domain-safe like {!summary}: a domain racing the first build
    builds the same index again, and one of the two is kept. *)

val has_index : string -> t -> bool
(** Whether the index for [field] has been materialized already (used by
    the cost model: a warm index has no build cost). *)

val pp : t Fmt.t
(** Renders as an aligned ASCII grid when the element type is a flat tuple
    type, one value per line otherwise. *)
