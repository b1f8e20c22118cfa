(* Catalog statistics: per-table row counts and per-attribute NDV / null /
   empty-set summaries, kept with each table. See stats.mli. *)

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

let scan catalog = List.map Table.scan_summary (Catalog.tables catalog)
let of_catalog catalog = List.map Table.summary (Catalog.tables catalog)

(* Stamps come from one process-wide counter. The compare-and-set makes
   the first assignment final: a domain that loses the race discards its
   number and returns the winner's. *)
let next_version = Atomic.make 0

let version catalog =
  let slot = Catalog.stamp catalog in
  match Atomic.get slot with
  | 0 ->
    let v = Atomic.fetch_and_add next_version 1 + 1 in
    if Atomic.compare_and_set slot 0 v then v else Atomic.get slot
  | v -> v

(* The cost model asks these many times per compile (about fifty lookups
   for a two-table query), so they avoid the option allocations of
   [Catalog.find] and the polymorphic compare of [List.assoc_opt]. *)
let rec assoc field = function
  | [] -> None
  | (l, a) :: rest -> if String.equal l field then Some a else assoc field rest

let table stats name = List.find_opt (fun t -> String.equal t.name name) stats

let attr stats tname aname =
  match table stats tname with None -> None | Some t -> assoc aname t.attrs

let find catalog name = Option.map Table.summary (Catalog.find name catalog)

let row_count catalog name =
  match Catalog.find_exn name catalog with
  | t -> Some (Table.summary t).rows
  | exception Not_found -> None

let find_attr catalog tname field =
  match Catalog.find_exn tname catalog with
  | t -> assoc field (Table.summary t).attrs
  | exception Not_found -> None

let ndv catalog ~table:tname ~field =
  match find_attr catalog tname field with
  | Some { ndv = Some d; _ } when d > 0 -> Some d
  | _ -> None

let avg_set_card catalog ~table:tname ~field =
  Option.bind (find_attr catalog tname field) (fun a -> a.avg_card)

let fopt = function None -> "-" | Some f -> Printf.sprintf "%.2f" f
let iopt = function None -> "-" | Some i -> string_of_int i

let pp ppf stats =
  Fmt.pf ppf "%-12s %8s  %-10s %6s %6s %7s %9s@." "table" "rows" "attribute"
    "ndv" "null" "empty" "avg-card";
  List.iter
    (fun t ->
      List.iter
        (fun (name, a) ->
          Fmt.pf ppf "%-12s %8d  %-10s %6s %6.2f %7s %9s@." t.name t.rows
            (if name = "" then "(elt)" else name)
            (iopt a.ndv) a.null_frac (fopt a.empty_frac) (fopt a.avg_card))
        t.attrs)
    stats
