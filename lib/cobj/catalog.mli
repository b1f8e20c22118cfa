(** The catalog maps extension names (FROM-clause table names) to tables. *)

type t

val empty : t
val add : Table.t -> t -> t
(** Replaces any previous table of the same name. *)

val of_tables : Table.t list -> t
val find : string -> t -> Table.t option
val find_exn : string -> t -> Table.t
(** Raises [Not_found]. *)

val mem : string -> t -> bool
val names : t -> string list
(** Sorted. *)

val tables : t -> Table.t list

val stamp : t -> int Atomic.t
(** The catalog's statistics-version slot: [0] until {!Stats.version}
    stamps it. Each catalog value (each result of {!add}) has its own. *)

val pp : t Fmt.t
