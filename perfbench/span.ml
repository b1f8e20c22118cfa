(* In-memory span recorder for the traced run.

   Spans are opened by the benchmark's own code around calls into the
   public functions of each layer (lang, core, cobj, engine, server); the
   program itself is not instrumented. Each operation is one root span
   (layer "bench"); its children share the operation id. When the root
   closes, self times (span time minus the time of its direct children)
   are folded into per-name and per-layer totals, so memory stays bounded
   however many operations run. The spans of the first [keep_ops]
   operations are kept verbatim and written out at the end of the run as
   a Chrome trace-event file. *)

let now_ns () = Monotonic_clock.now ()
let keep_ops = 200

type span = {
  id : int;
  parent : int;  (* -1 for an operation's root span *)
  op : int;
  layer : string;
  name : string;
  t0 : int64;
  mutable t1 : int64;
}

type t = {
  tid : int;
  mutable next_id : int;
  mutable next_op : int;
  mutable stack : span list;
  mutable closed : span list;  (* spans of the operation in progress *)
  by_name : (string, float) Hashtbl.t;  (* inclusive time *)
  by_layer : (string, float) Hashtbl.t;  (* self time *)
  mutable ops : int;
  mutable op_ns : float;  (* summed wall time of all root spans *)
  mutable kept : span list;
}

let create ~tid () =
  {
    tid;
    next_id = 0;
    next_op = 0;
    stack = [];
    closed = [];
    by_name = Hashtbl.create 32;
    by_layer = Hashtbl.create 8;
    ops = 0;
    op_ns = 0.;
    kept = [];
  }

let add tbl key ns =
  Hashtbl.replace tbl key (ns +. Option.value (Hashtbl.find_opt tbl key) ~default:0.)

let dur s = Int64.to_float (Int64.sub s.t1 s.t0)

(* Fold one finished operation's spans into the totals: inclusive time by
   name, self time (minus the direct children's time) by layer. *)
let fold_op t spans =
  let child_ns = Hashtbl.create 16 in
  List.iter (fun s -> if s.parent >= 0 then add child_ns s.parent (dur s)) spans;
  List.iter
    (fun s ->
      let children = Option.value (Hashtbl.find_opt child_ns s.id) ~default:0. in
      add t.by_name s.name (dur s);
      add t.by_layer s.layer (dur s -. children))
    spans

let span t ~layer name f =
  let parent, op =
    match t.stack with
    | [] -> (-1, t.next_op)
    | p :: _ -> (p.id, p.op)
  in
  let s = { id = t.next_id; parent; op; layer; name; t0 = now_ns (); t1 = 0L } in
  t.next_id <- t.next_id + 1;
  t.stack <- s :: t.stack;
  let finish () =
    s.t1 <- now_ns ();
    t.stack <- List.tl t.stack;
    t.closed <- s :: t.closed;
    if parent < 0 then begin
      fold_op t t.closed;
      t.ops <- t.ops + 1;
      t.op_ns <- t.op_ns +. dur s;
      if op < keep_ops then t.kept <- List.rev_append t.closed t.kept;
      t.closed <- [];
      t.next_op <- t.next_op + 1
    end
  in
  Fun.protect ~finally:finish f

(* One operation: the root span all layer spans of [f] nest under. *)
let op t f = span t ~layer:"bench" "op" f

let per_op t ns = if t.ops = 0 then 0. else ns /. float_of_int t.ops

(* Mean per-operation inclusive time of the spans called [name], in ns
   (0 when the name never occurred). *)
let name_ns t name = per_op t (Option.value (Hashtbl.find_opt t.by_name name) ~default:0.)

let layer_self_ns t layer =
  per_op t (Option.value (Hashtbl.find_opt t.by_layer layer) ~default:0.)

let op_ns t = per_op t t.op_ns

(* Fold [t]'s totals into [into] (per-connection tracers of one run). *)
let merge ~into t =
  Hashtbl.iter (add into.by_name) t.by_name;
  Hashtbl.iter (add into.by_layer) t.by_layer;
  into.ops <- into.ops + t.ops;
  into.op_ns <- into.op_ns +. t.op_ns

let event ~tid ~base s =
  let us x = Int64.to_float (Int64.sub x base) /. 1000. in
  Printf.sprintf
    "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"op\":%d,\"span\":%d,\"parent\":%d}}"
    s.name s.layer (us s.t0) (dur s /. 1000.) tid s.op s.id s.parent

(* Chrome trace-event JSON (chrome://tracing, Perfetto) of the kept spans
   of every tracer. *)
let write path tracers =
  let base =
    List.fold_left
      (fun acc t ->
        List.fold_left (fun acc s -> if s.t0 < acc then s.t0 else acc) acc t.kept)
      Int64.max_int tracers
  in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  let first = ref true in
  List.iter
    (fun t ->
      List.iter
        (fun s ->
          if not !first then output_string oc ",\n";
          first := false;
          output_string oc (event ~tid:t.tid ~base s))
        (List.rev t.kept))
    tracers;
  output_string oc "\n]}\n";
  close_out oc
