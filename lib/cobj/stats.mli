(** Catalog statistics for the cost model and the CLI: per table, the row
    count and per-attribute NDV / null / empty-set summaries
    ({!Table.summary}, computed once per table on first use and kept with
    it). The lookups resolve a table name through the catalog to that kept
    summary, so catalogs sharing a table (e.g. after {!Catalog.add}) share
    its summary, and no catalog is ever rescanned as a whole. *)

type attr = Table.attr = {
  ndv : int option;
  null_frac : float;
  empty_frac : float option;
  avg_card : float option;
}

type table = Table.summary = {
  name : string;
  rows : int;
  attrs : (string * attr) list;
}

type t = table list

val scan : Catalog.t -> t
(** Fresh statistics: one full pass over every table, ignoring (and not
    filling) the kept summaries. *)

val of_catalog : Catalog.t -> t
(** The kept summary of every table, in name order — structurally equal to
    {!scan}; only tables never summarized before are scanned. *)

val find : Catalog.t -> string -> table option
(** The kept summary of one table (computed now if it is the table's first
    use); [None] when the catalog has no such table. *)

val version : Catalog.t -> int
(** Monotonic statistics-version stamp for cache keying: the first call on
    a catalog assigns the next number from a process-wide counter and
    stores it in the catalog ({!Catalog.stamp}); later calls return the
    same stamp. Catalogs are immutable, so a changed catalog is a different
    value with a new stamp. Plan-cache keys embed this stamp, so any
    catalog change invalidates every cached plan and result derived from
    the old statistics. Safe from any thread or domain. *)

val table : t -> string -> table option
val attr : t -> string -> string -> attr option

val row_count : Catalog.t -> string -> int option
val ndv : Catalog.t -> table:string -> field:string -> int option
(** [Some d] only when the table exists, is non-empty and [d > 0]. *)

val avg_set_card : Catalog.t -> table:string -> field:string -> float option

val pp : t Fmt.t
(** Aligned grid, one line per attribute (the [nestql stats] output). *)
