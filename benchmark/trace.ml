(* Spans and counters recorded by the benchmark around its own calls into
   each layer of the stack, kept in memory and summarised (or written as
   Chrome trace-event JSON) when the run ends.  With tracing off a span is
   one branch around the call; with it on, recording a span allocates
   nothing but the occasional doubling of the columns below. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let enabled = ref false

(* Span [i] is the i-th span opened: its name, the op it belongs to (-1
   outside any op), the enclosing span (-1 at top level), and its start
   and end in monotonic seconds. *)
type columns = {
  mutable name : string array;
  mutable op : int array;
  mutable parent : int array;
  mutable t0 : float array;
  mutable t1 : float array;
}

let cols = { name = [||]; op = [||]; parent = [||]; t0 = [||]; t1 = [||] }
let count_spans = ref 0
let innermost = ref (-1)
let current_op = ref (-1)
let counters : (string, float) Hashtbl.t = Hashtbl.create 32

let grow () =
  let n = max 1024 (2 * Array.length cols.t0) in
  let ext a fill = Array.append a (Array.make (n - Array.length a) fill) in
  cols.name <- ext cols.name "";
  cols.op <- ext cols.op 0;
  cols.parent <- ext cols.parent 0;
  cols.t0 <- ext cols.t0 0.;
  cols.t1 <- ext cols.t1 0.

let start () =
  count_spans := 0;
  innermost := -1;
  current_op := -1;
  Hashtbl.reset counters;
  enabled := true

let stop () = enabled := false

let span name f =
  if not !enabled then f ()
  else begin
    let id = !count_spans in
    if id = Array.length cols.t0 then grow ();
    incr count_spans;
    let parent = !innermost in
    cols.name.(id) <- name;
    cols.op.(id) <- !current_op;
    cols.parent.(id) <- parent;
    innermost := id;
    cols.t0.(id) <- now ();
    let close () =
      cols.t1.(id) <- now ();
      innermost := parent
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* One benchmark op: a top-level "op" span whose direct children are the
   layer spans. *)
let op id f =
  if not !enabled then f ()
  else begin
    current_op := id;
    Fun.protect ~finally:(fun () -> current_op := -1) (fun () -> span "op" f)
  end

let count name v =
  if !enabled then
    Hashtbl.replace counters name
      (v +. Option.value (Hashtbl.find_opt counters name) ~default:0.)

let counter name = Option.value (Hashtbl.find_opt counters name) ~default:0.

type summary = {
  ops : int;
  op_wall : float;  (** summed duration of the op spans, seconds *)
  self : (string * float) list;  (** layer -> summed self time, seconds *)
  coverage : float;  (** share of op wall inside direct child spans *)
}

(* A span's self time is its duration minus the time its direct children
   cover; children never overlap because spans nest on one thread. *)
let summarize () : summary =
  let n = !count_spans in
  let dur i = cols.t1.(i) -. cols.t0.(i) in
  let covered = Array.make n 0. in
  for i = 0 to n - 1 do
    let p = cols.parent.(i) in
    if p >= 0 then covered.(p) <- covered.(p) +. dur i
  done;
  let self = Hashtbl.create 32 in
  let ops = ref 0 and op_wall = ref 0. and op_covered = ref 0. in
  for i = 0 to n - 1 do
    if cols.name.(i) = "op" then begin
      incr ops;
      op_wall := !op_wall +. dur i;
      op_covered := !op_covered +. covered.(i)
    end
    else
      Hashtbl.replace self cols.name.(i)
        (dur i -. covered.(i)
        +. Option.value (Hashtbl.find_opt self cols.name.(i)) ~default:0.)
  done;
  {
    ops = !ops;
    op_wall = !op_wall;
    self = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) self []);
    coverage = (if !op_wall > 0. then !op_covered /. !op_wall else 0.);
  }

(* Chrome trace-event JSON ("X" complete events, microseconds), which
   Perfetto and chrome://tracing open directly.  Span names are the
   benchmark's own identifiers and need no escaping. *)
let write_chrome (path : string) =
  let base = if !count_spans > 0 then cols.t0.(0) else 0. in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
      for i = 0 to !count_spans - 1 do
        Printf.fprintf oc
          "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"op\":%d,\"parent\":%d}}"
          (if i = 0 then "" else ",")
          cols.name.(i)
          ((cols.t0.(i) -. base) *. 1e6)
          ((cols.t1.(i) -. cols.t0.(i)) *. 1e6)
          i cols.op.(i) cols.parent.(i)
      done;
      output_string oc "\n]}\n")
