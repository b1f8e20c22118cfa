type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or
  | Mem
  | Union | Inter | Diff
  | Subset | Subseteq | Supset | Supseteq

type unop = Not | Neg

type agg = Count | Sum | Min | Max | Avg

type quant = Exists | Forall

type expr =
  | Const of Cobj.Value.t
  | Var of string
  | TableRef of string
  | Field of expr * string
  | TupleE of (string * expr) list
  | SetE of expr list
  | ListE of expr list
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Agg of agg * expr
  | Quant of quant * string * expr * expr
  | Let of string * expr * expr
  | UnnestE of expr
  | If of expr * expr * expr
  | VariantE of string * expr
  | IsTag of expr * string
  | AsTag of expr * string
  | Sfw of sfw

and sfw = {
  select : expr;
  from : (string * expr) list;
  where : expr option;
}

let sfw ?where ~select from = Sfw { select; from; where }
let vint i = Const (Cobj.Value.Int i)
let vstr s = Const (Cobj.Value.String s)
let vbool b = Const (Cobj.Value.Bool b)
let empty_set = SetE []
let path v fields = List.fold_left (fun e f -> Field (e, f)) (Var v) fields

let conj = function
  | [] -> vbool true
  | e :: rest -> List.fold_left (fun acc p -> Binop (And, acc, p)) e rest

let disj = function
  | [] -> vbool false
  | e :: rest -> List.fold_left (fun acc p -> Binop (Or, acc, p)) e rest

module String_set = Set.Make (String)

let rec free_vars e =
  match e with
  | Const _ | TableRef _ -> String_set.empty
  | Var x -> String_set.singleton x
  | Field (e, _) | Unop (_, e) | Agg (_, e) | UnnestE e
  | VariantE (_, e) | IsTag (e, _) | AsTag (e, _) ->
    free_vars e
  | If (c, a, b) ->
    String_set.union (free_vars c) (String_set.union (free_vars a) (free_vars b))
  | TupleE fields ->
    List.fold_left
      (fun acc (_, e) -> String_set.union acc (free_vars e))
      String_set.empty fields
  | SetE es | ListE es ->
    List.fold_left
      (fun acc e -> String_set.union acc (free_vars e))
      String_set.empty es
  | Binop (_, a, b) -> String_set.union (free_vars a) (free_vars b)
  | Quant (_, v, s, p) ->
    String_set.union (free_vars s) (String_set.remove v (free_vars p))
  | Let (v, def, body) ->
    String_set.union (free_vars def) (String_set.remove v (free_vars body))
  | Sfw { select; from; where } ->
    (* FROM binders scope over later operands, SELECT and WHERE. *)
    let rec go bound acc = function
      | [] ->
        let inner =
          match where with
          | None -> free_vars select
          | Some w -> String_set.union (free_vars select) (free_vars w)
        in
        String_set.union acc (String_set.diff inner bound)
      | (v, operand) :: rest ->
        let acc =
          String_set.union acc (String_set.diff (free_vars operand) bound)
        in
        go (String_set.add v bound) acc rest
    in
    go String_set.empty String_set.empty from

let occurs_free x e = String_set.mem x (free_vars e)

let fresh avoid base =
  let rec go name = if String_set.mem name avoid then go (name ^ "'") else name in
  go base

(* Capture-avoiding substitution. When descending under a binder [v]:
   - if [v = x], stop (x is shadowed);
   - if [v] occurs free in the replacement, alpha-rename [v]. *)
let rec subst x replacement e =
  let fv_repl = free_vars replacement in
  let sub = subst x replacement in
  (* Rename binder [v] of [body] if it would capture; returns binder+body. *)
  let under_binder v body =
    if String.equal v x then (v, body)
    else if String_set.mem v fv_repl then begin
      let avoid =
        String_set.union fv_repl
          (String_set.union (free_vars body) (String_set.singleton x))
      in
      let v' = fresh avoid v in
      (v', sub (subst v (Var v') body))
    end
    else (v, sub body)
  in
  match e with
  | Var y -> if String.equal x y then replacement else e
  | Const _ | TableRef _ -> e
  | Field (e1, l) -> Field (sub e1, l)
  | TupleE fields -> TupleE (List.map (fun (l, e1) -> (l, sub e1)) fields)
  | SetE es -> SetE (List.map sub es)
  | ListE es -> ListE (List.map sub es)
  | Unop (op, e1) -> Unop (op, sub e1)
  | Binop (op, a, b) -> Binop (op, sub a, sub b)
  | Agg (a, e1) -> Agg (a, sub e1)
  | UnnestE e1 -> UnnestE (sub e1)
  | If (c, a, b) -> If (sub c, sub a, sub b)
  | VariantE (tag, e1) -> VariantE (tag, sub e1)
  | IsTag (e1, tag) -> IsTag (sub e1, tag)
  | AsTag (e1, tag) -> AsTag (sub e1, tag)
  | Quant (q, v, s, p) ->
    let s = sub s in
    let v, p = under_binder v p in
    Quant (q, v, s, p)
  | Let (v, def, body) ->
    let def = sub def in
    let v, body = under_binder v body in
    Let (v, def, body)
  | Sfw { select; from; where } ->
    (* Sequential binders: substitute in each operand, renaming binders as
       needed; once a binder equals [x], later positions are shadowed. *)
    let rec go from_acc select where = function
      | [] ->
        let select = sub select in
        let where = Option.map sub where in
        Sfw { select; from = List.rev from_acc; where }
      | (v, operand) :: rest ->
        let operand = sub operand in
        if String.equal v x then
          Sfw
            {
              select;
              from = List.rev_append from_acc ((v, operand) :: rest);
              where;
            }
        else if String_set.mem v fv_repl then begin
          let avoid =
            String_set.union fv_repl
              (String_set.add x
                 (free_vars (Sfw { select; from = rest; where })))
          in
          let v' = fresh avoid v in
          let rn e = subst v (Var v') e in
          let rest = List.map (fun (w, op) -> (w, rn op)) rest in
          (* A later FROM binder equal to [v] would have shadowed it; the
             uniform rename above is still correct because [rn] respects
             shadowing. *)
          go ((v', operand) :: from_acc) (rn select) (Option.map rn where)
            rest
        end
        else go ((v, operand) :: from_acc) select where rest
    in
    go [] select where from

let rec rename_binders_away_from avoid e =
  let ren = rename_binders_away_from avoid in
  match e with
  | Const _ | Var _ | TableRef _ -> e
  | Field (e1, l) -> Field (ren e1, l)
  | TupleE fields -> TupleE (List.map (fun (l, e1) -> (l, ren e1)) fields)
  | SetE es -> SetE (List.map ren es)
  | ListE es -> ListE (List.map ren es)
  | Unop (op, e1) -> Unop (op, ren e1)
  | Binop (op, a, b) -> Binop (op, ren a, ren b)
  | Agg (a, e1) -> Agg (a, ren e1)
  | UnnestE e1 -> UnnestE (ren e1)
  | If (c, a, b) -> If (ren c, ren a, ren b)
  | VariantE (tag, e1) -> VariantE (tag, ren e1)
  | IsTag (e1, tag) -> IsTag (ren e1, tag)
  | AsTag (e1, tag) -> AsTag (ren e1, tag)
  | Quant (q, v, s, p) ->
    let s = ren s in
    if String_set.mem v avoid then begin
      let v' = fresh (String_set.union avoid (free_vars p)) v in
      Quant (q, v', s, ren (subst v (Var v') p))
    end
    else Quant (q, v, s, ren p)
  | Let (v, def, body) ->
    let def = ren def in
    if String_set.mem v avoid then begin
      let v' = fresh (String_set.union avoid (free_vars body)) v in
      Let (v', def, ren (subst v (Var v') body))
    end
    else Let (v, def, ren body)
  | Sfw { select; from; where } ->
    let rec go from_acc select where = function
      | [] ->
        Sfw
          {
            select = ren select;
            from = List.rev from_acc;
            where = Option.map ren where;
          }
      | (v, operand) :: rest ->
        let operand = ren operand in
        if String_set.mem v avoid then begin
          let fv_rest =
            free_vars (Sfw { select; from = rest; where })
          in
          let v' = fresh (String_set.union avoid fv_rest) v in
          let rn e = subst v (Var v') e in
          let rest = List.map (fun (w, op) -> (w, rn op)) rest in
          go ((v', operand) :: from_acc) (rn select) (Option.map rn where)
            rest
        end
        else go ((v, operand) :: from_acc) select where rest
    in
    go [] select where from

let resolve_tables catalog e =
  let is_table x = Cobj.Catalog.mem x catalog in
  let rec res bound e =
    match e with
    | Var x when (not (String_set.mem x bound)) && is_table x -> TableRef x
    | Var _ | Const _ | TableRef _ -> e
    | Field (e1, l) -> Field (res bound e1, l)
    | TupleE fields -> TupleE (List.map (fun (l, e1) -> (l, res bound e1)) fields)
    | SetE es -> SetE (List.map (res bound) es)
    | ListE es -> ListE (List.map (res bound) es)
    | Unop (op, e1) -> Unop (op, res bound e1)
    | Binop (op, a, b) -> Binop (op, res bound a, res bound b)
    | Agg (a, e1) -> Agg (a, res bound e1)
    | UnnestE e1 -> UnnestE (res bound e1)
    | If (c, a, b) -> If (res bound c, res bound a, res bound b)
    | VariantE (tag, e1) -> VariantE (tag, res bound e1)
    | IsTag (e1, tag) -> IsTag (res bound e1, tag)
    | AsTag (e1, tag) -> AsTag (res bound e1, tag)
    | Quant (q, v, s, p) ->
      Quant (q, v, res bound s, res (String_set.add v bound) p)
    | Let (v, def, body) ->
      Let (v, res bound def, res (String_set.add v bound) body)
    | Sfw { select; from; where } ->
      let bound', from =
        List.fold_left
          (fun (bound, acc) (v, operand) ->
            (String_set.add v bound, (v, res bound operand) :: acc))
          (bound, []) from
      in
      let from = List.rev from in
      Sfw
        {
          select = res bound' select;
          from;
          where = Option.map (res bound') where;
        }
  in
  res String_set.empty e

let rec equal a b =
  match a, b with
  | Const x, Const y -> Cobj.Value.equal x y
  | Var x, Var y | TableRef x, TableRef y -> String.equal x y
  | Field (e1, l1), Field (e2, l2) -> String.equal l1 l2 && equal e1 e2
  | TupleE xs, TupleE ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (l1, x) (l2, y) -> String.equal l1 l2 && equal x y)
         xs ys
  | SetE xs, SetE ys | ListE xs, ListE ys ->
    List.length xs = List.length ys && List.for_all2 equal xs ys
  | Unop (o1, x), Unop (o2, y) -> o1 = o2 && equal x y
  | Binop (o1, x1, y1), Binop (o2, x2, y2) ->
    o1 = o2 && equal x1 x2 && equal y1 y2
  | Agg (a1, x), Agg (a2, y) -> a1 = a2 && equal x y
  | Quant (q1, v1, s1, p1), Quant (q2, v2, s2, p2) ->
    q1 = q2 && String.equal v1 v2 && equal s1 s2 && equal p1 p2
  | Let (v1, d1, b1), Let (v2, d2, b2) ->
    String.equal v1 v2 && equal d1 d2 && equal b1 b2
  | UnnestE x, UnnestE y -> equal x y
  | If (c1, a1, b1), If (c2, a2, b2) -> equal c1 c2 && equal a1 a2 && equal b1 b2
  | VariantE (t1, x), VariantE (t2, y) -> String.equal t1 t2 && equal x y
  | IsTag (x, t1), IsTag (y, t2) | AsTag (x, t1), AsTag (y, t2) ->
    String.equal t1 t2 && equal x y
  | Sfw s1, Sfw s2 ->
    equal s1.select s2.select
    && List.length s1.from = List.length s2.from
    && List.for_all2
         (fun (v1, e1) (v2, e2) -> String.equal v1 v2 && equal e1 e2)
         s1.from s2.from
    && Option.equal equal s1.where s2.where
  | ( ( Const _ | Var _ | TableRef _ | Field _ | TupleE _ | SetE _ | ListE _
      | Unop _ | Binop _ | Agg _ | Quant _ | Let _ | UnnestE _ | If _
      | VariantE _ | IsTag _ | AsTag _ | Sfw _ ),
      _ ) ->
    false

let rec size e =
  match e with
  | Const _ | Var _ | TableRef _ -> 1
  | Field (e1, _) | Unop (_, e1) | Agg (_, e1) | UnnestE e1
  | VariantE (_, e1) | IsTag (e1, _) | AsTag (e1, _) ->
    1 + size e1
  | If (c, a, b) -> 1 + size c + size a + size b
  | TupleE fields ->
    List.fold_left (fun acc (_, e1) -> acc + size e1) 1 fields
  | SetE es | ListE es -> List.fold_left (fun acc e1 -> acc + size e1) 1 es
  | Binop (_, a, b) -> 1 + size a + size b
  | Quant (_, _, s, p) -> 1 + size s + size p
  | Let (_, d, b) -> 1 + size d + size b
  | Sfw { select; from; where } ->
    let w = match where with None -> 0 | Some w -> size w in
    List.fold_left (fun acc (_, e1) -> acc + size e1) (1 + size select + w) from

let rec all_vars_acc acc e =
  match e with
  | Const _ | TableRef _ -> acc
  | Var x -> String_set.add x acc
  | Field (e1, _) | Unop (_, e1) | Agg (_, e1) | UnnestE e1
  | VariantE (_, e1) | IsTag (e1, _) | AsTag (e1, _) ->
    all_vars_acc acc e1
  | If (c, a, b) -> all_vars_acc (all_vars_acc (all_vars_acc acc c) a) b
  | TupleE fields ->
    List.fold_left (fun acc (_, e1) -> all_vars_acc acc e1) acc fields
  | SetE es | ListE es -> List.fold_left all_vars_acc acc es
  | Binop (_, a, b) -> all_vars_acc (all_vars_acc acc a) b
  | Quant (_, v, s, p) ->
    all_vars_acc (all_vars_acc (String_set.add v acc) s) p
  | Let (v, d, b) -> all_vars_acc (all_vars_acc (String_set.add v acc) d) b
  | Sfw { select; from; where } ->
    let acc = all_vars_acc acc select in
    let acc =
      List.fold_left
        (fun acc (v, op) -> all_vars_acc (String_set.add v acc) op)
        acc from
    in
    Option.fold ~none:acc ~some:(all_vars_acc acc) where

let all_vars e = all_vars_acc String_set.empty e

let rec tables_acc acc e =
  match e with
  | Const _ | Var _ -> acc
  | TableRef t -> String_set.add t acc
  | Field (e1, _) | Unop (_, e1) | Agg (_, e1) | UnnestE e1
  | VariantE (_, e1) | IsTag (e1, _) | AsTag (e1, _) ->
    tables_acc acc e1
  | If (c, a, b) -> tables_acc (tables_acc (tables_acc acc c) a) b
  | TupleE fields ->
    List.fold_left (fun acc (_, e1) -> tables_acc acc e1) acc fields
  | SetE es | ListE es -> List.fold_left tables_acc acc es
  | Binop (_, a, b) | Quant (_, _, a, b) | Let (_, a, b) ->
    tables_acc (tables_acc acc a) b
  | Sfw { select; from; where } ->
    let acc = tables_acc acc select in
    let acc = List.fold_left (fun acc (_, op) -> tables_acc acc op) acc from in
    Option.fold ~none:acc ~some:(tables_acc acc) where

let tables e = tables_acc String_set.empty e
