module String_map = Map.Make (String)

type t = { tables : Table.t String_map.t; stamp : int Atomic.t }

let of_map tables = { tables; stamp = Atomic.make 0 }
let empty = of_map String_map.empty
let add table cat = of_map (String_map.add (Table.name table) table cat.tables)
let of_tables tables = List.fold_left (fun cat t -> add t cat) empty tables
let find name cat = String_map.find_opt name cat.tables
let find_exn name cat = String_map.find name cat.tables
let mem name cat = String_map.mem name cat.tables
let names cat = List.map fst (String_map.bindings cat.tables)
let tables cat = List.map snd (String_map.bindings cat.tables)
let stamp cat = cat.stamp

let pp ppf cat =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:(Fmt.any "@,@,") Table.pp)
    (tables cat)
