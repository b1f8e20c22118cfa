module Value_tbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

module Smap = Map.Make (String)

type attr = {
  ndv : int option;
  null_frac : float;
  empty_frac : float option;
  avg_card : float option;
}

type summary = { name : string; rows : int; attrs : (string * attr) list }

type t = {
  name : string;
  elt : Ctype.t;
  rows : Value.t list;
  key : string list option;
  summary : summary option Atomic.t;
  indexes : Value.t list Value_tbl.t Smap.t Atomic.t;
      (* field -> built index; a published index is never mutated *)
}

let verify_key rows fields =
  let seen = Hashtbl.create 64 in
  List.for_all
    (fun row ->
      let k = Value.tuple (List.map (fun f -> (f, Value.field f row)) fields) in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    rows

let create ?key ~name ~elt values =
  List.iter
    (fun v ->
      if not (Ctype.conforms v elt) then
        invalid_arg
          (Fmt.str "Table.create %s: row %a does not conform to %a" name
             Value.pp v Ctype.pp elt))
    values;
  let rows = List.sort_uniq Value.compare values in
  (match key with
  | Some fields when not (verify_key rows fields) ->
    invalid_arg
      (Fmt.str "Table.create %s: declared key {%s} is not unique" name
         (String.concat ", " fields))
  | Some _ | None -> ());
  {
    name;
    elt;
    rows;
    key;
    summary = Atomic.make None;
    indexes = Atomic.make Smap.empty;
  }

let name t = t.name
let elt t = t.elt
let rows t = t.rows
let cardinality t = List.length t.rows
let key t = t.key
let to_value t = Value.Set t.rows

let build_index field t =
  let index = Value_tbl.create (max 16 (List.length t.rows)) in
  List.iter
    (fun row ->
      match Value.field_opt field row with
      | None -> ()
      | Some v ->
        let bucket = try Value_tbl.find index v with Not_found -> [] in
        Value_tbl.replace index v (row :: bucket))
    t.rows;
  (* restore table order within buckets *)
  Value_tbl.filter_map_inplace (fun _ bucket -> Some (List.rev bucket)) index;
  index

(* Compute, then publish, as [summary] does: the index is complete before
   any other domain can see it. A domain that loses the compare-and-set to
   another publisher of the same field adopts the winner's index. *)
let index field t =
  match Smap.find_opt field (Atomic.get t.indexes) with
  | Some index -> index
  | None ->
    let built = build_index field t in
    let rec publish () =
      let seen = Atomic.get t.indexes in
      match Smap.find_opt field seen with
      | Some index -> index
      | None ->
        if Atomic.compare_and_set t.indexes seen (Smap.add field built seen)
        then built
        else publish ()
    in
    publish ()

let index_lookup field t v =
  match Value_tbl.find_opt (index field t) v with
  | Some rows -> rows
  | None -> []

let has_index field t = Smap.mem field (Atomic.get t.indexes)

(* Attribute labels come from the declared element type when it is a tuple
   (the common case for base tables); a non-tuple element type yields a
   single anonymous attribute describing the whole element. *)
let labels_of_elt = function
  | Ctype.TTuple fields -> List.map fst fields
  | _ -> [ "" ]

let attr_value label row =
  match label, row with
  | "", v -> Some v
  | l, Value.Tuple _ -> Value.field_opt l row
  | _, _ -> None

let scan_summary (t : t) =
  let n = List.length t.rows in
  let frac num den =
    if den = 0 then 0.0 else float_of_int num /. float_of_int den
  in
  let scan_attr label =
    let nulls = ref 0 in
    let collections = ref 0 in
    let empties = ref 0 in
    let members = ref 0 in
    let distinct = Value_tbl.create 64 in
    List.iter
      (fun row ->
        match attr_value label row with
        | None | Some Value.Null -> incr nulls
        | Some v -> (
          Value_tbl.replace distinct v ();
          match v with
          | Value.Set elts | Value.List elts ->
            incr collections;
            members := !members + List.length elts;
            if elts = [] then incr empties
          | _ -> ()))
      t.rows;
    let per_collection num =
      if !collections = 0 then None else Some (frac num !collections)
    in
    ( label,
      {
        ndv = (if n = 0 then None else Some (Value_tbl.length distinct));
        null_frac = frac !nulls n;
        empty_frac = per_collection !empties;
        avg_card = per_collection !members;
      } )
  in
  ({ name = t.name; rows = n; attrs = List.map scan_attr (labels_of_elt t.elt) }
    : summary)

(* Compute, then publish. Two domains racing on a cold table both scan and
   store the same deterministic value; either store is a valid answer. *)
let summary t =
  match Atomic.get t.summary with
  | Some s -> s
  | None ->
    let s = scan_summary t in
    Atomic.set t.summary (Some s);
    s

(* Grid rendering for flat tuple rows; falls back to one value per line. *)
let pp ppf t =
  let flat_labels =
    match t.elt with
    | Ctype.TTuple fields -> Some (List.map fst fields)
    | Ctype.(TAny | TBool | TInt | TFloat | TString | TSet _ | TList _
             | TVariant _) ->
      None
  in
  match flat_labels with
  | None ->
    Fmt.pf ppf "@[<v>%s (%d rows)@,%a@]" t.name (cardinality t)
      (Fmt.list ~sep:Fmt.cut Value.pp)
      t.rows
  | Some labels ->
    let cell row l = Value.to_string (Value.field l row) in
    let widths =
      List.map
        (fun l ->
          List.fold_left
            (fun w row -> max w (String.length (cell row l)))
            (String.length l) t.rows)
        labels
    in
    let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
    let render_row cells =
      String.concat " | " (List.map2 pad cells widths)
    in
    let header = render_row labels in
    let rule = String.make (String.length header) '-' in
    Fmt.pf ppf "@[<v>%s (%d rows)@,%s@,%s" t.name (cardinality t) header rule;
    List.iter
      (fun row ->
        Fmt.pf ppf "@,%s" (render_row (List.map (cell row) labels)))
      t.rows;
    Fmt.pf ppf "@]"
