(* Oracles that are not the engine under test.

   - [interp]: the reference interpreter, [Lang.Interp] (pure nested-loop
     semantics), on a resolved query. Used at the sizes where nested loops
     are affordable: every compile-corpus and serve-mix result, and a
     reduced-scale copy of the nest-scale and apply-deep catalogs.
   - the [ref_*] functions: each nest-scale and apply-deep query's answer
     computed directly from the generated tables with hash maps, so the
     full-scale results are checked too. The reduced-scale run checks these
     references against [Lang.Interp] as well, so a wrong reference cannot
     pass silently.

   The Kim baseline is never an oracle: it loses dangling rows on
   purpose. *)

module V = Cobj.Value

let interp catalog text =
  let expr = Lang.Parser.expr text in
  match Lang.Types.check_query catalog expr with
  | Ok (resolved, _) -> Lang.Interp.run catalog resolved
  | Error err -> failwith (Fmt.str "%a" Lang.Types.pp_error err)

let rows catalog name = Cobj.Table.rows (Cobj.Catalog.find_exn name catalog)
let int f row = V.as_int (V.field f row)

(* key → rows of [table] whose field [f] equals key *)
let group_by f rows =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun r ->
      let k = int f r in
      Hashtbl.replace tbl k (r :: Option.value (Hashtbl.find_opt tbl k) ~default:[]))
    rows;
  tbl

let matches tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:[]
let ints f rs = List.sort_uniq compare (List.map (int f) rs)
let set_of_ints l = V.set (List.map (fun i -> V.Int i) l)
let subset small big = List.for_all (fun e -> List.mem e big) small

let set_elems f row =
  List.map V.as_int (V.elements (V.field f row)) |> List.sort_uniq compare

(* --- nest-scale: the paper's predicate families on xy, and §8 on xyz --- *)

let ref_xy_family family catalog =
  let xs = rows catalog "X" and ys = group_by "b" (rows catalog "Y") in
  let ids pred =
    V.set (List.filter_map (fun x -> if pred x then Some (V.Int (int "id" x)) else None) xs)
  in
  let inner x = ints "a" (matches ys (int "b" x)) in
  match family with
  | `In -> ids (fun x -> List.mem (int "a" x) (inner x))
  | `Not_in -> ids (fun x -> not (List.mem (int "a" x) (inner x)))
  | `Count_zero -> ids (fun x -> matches ys (int "b" x) = [])
  | `Subseteq -> ids (fun x -> subset (set_elems "s" x) (inner x))
  | `Select_nest ->
    V.set
      (List.map
         (fun x -> V.tuple [ ("i", V.Int (int "id" x)); ("ys", set_of_ints (inner x)) ])
         xs)
  | `Select_sum ->
    V.set
      (List.map
         (fun x ->
           V.tuple
             [ ("i", V.Int (int "id" x));
               ("v", V.Int (List.fold_left ( + ) 0 (inner x))) ])
         xs)

(* x.a ⊆ {y.a | x.b = y.b ∧ y.c ⊆ {z.c | y.d = z.d}} *)
let ref_section8 catalog =
  let zs = group_by "d" (rows catalog "Z") in
  let ys_ok =
    List.filter
      (fun y -> subset (set_elems "c" y) (ints "c" (matches zs (int "d" y))))
      (rows catalog "Y")
  in
  let ys = group_by "b" ys_ok in
  V.set
    (List.filter
       (fun x -> subset (set_elems "a" x) (ints "a" (matches ys (int "b" x))))
       (rows catalog "X"))

(* --- apply-deep: correlation that skips a level --------------------- *)

let ref_apply_deep shape catalog =
  let ys_all = rows catalog "Y" in
  let ys = group_by "b" ys_all in
  let by_b_a = Hashtbl.create 1024 in
  List.iter
    (fun w ->
      let k = (int "b" w, int "a" w) in
      Hashtbl.replace by_b_a k (1 + Option.value (Hashtbl.find_opt by_b_a k) ~default:0))
    ys_all;
  let per_x x =
    let b = int "b" x and inner = matches ys (int "b" x) in
    match shape with
    | `Ws_eq ->
      (* ws = {w.a | w.b = x.b ∧ w.a = y.a} is {y.a}: y itself qualifies *)
      ( "ys",
        V.set
          (List.map
             (fun y ->
               V.tuple [ ("a", V.Int (int "a" y)); ("ws", set_of_ints [ int "a" y ]) ])
             inner) )
    | `Sum_counts ->
      let counts =
        List.sort_uniq compare
          (List.map
             (fun y -> Option.value (Hashtbl.find_opt by_b_a (b, int "a" y)) ~default:0)
             inner)
      in
      ("n", V.Int (List.fold_left ( + ) 0 counts))
    | `Ws_lt ->
      ( "ys",
        V.set
          (List.map
             (fun y ->
               let ws =
                 List.filter_map
                   (fun w -> if int "a" w < int "a" y then Some (int "id" w) else None)
                   inner
               in
               V.tuple [ ("b", V.Int (int "id" y)); ("ws", set_of_ints ws) ])
             inner) )
  in
  V.set
    (List.map
       (fun x ->
         let label, v = per_x x in
         V.tuple [ ("i", V.Int (int "id" x)); (label, v) ])
       (rows catalog "X"))

(* Structural digest of a value: sets are sorted and tuples label-sorted
   by construction, so equal values marshal to equal bytes. *)
let digest (v : V.t) = Digest.string (Marshal.to_string v [ Marshal.No_sharing ])
