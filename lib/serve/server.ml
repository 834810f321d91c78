(* twilld: the persistent compile/simulate service.

   Protocol: line-delimited JSON over a Unix-domain socket.  Each line
   is one request object `{"cmd": ..., ...}`; the response is one JSON
   object on one line, echoing the request's "id" field when present.
   Commands:

     ping                          liveness probe
     stats                         cache/request counters
     stop                          shut the daemon down
     simulate src [opts]           cycle-accurate stats of the design
     comm     src [opts]           communication-optimizer report
                                   (comm defaults to all passes)
     dse      [grid] [sample,seed] design-space sweep over the cache

   opts (all optional) are the table knobs in [request_knobs], under
   their {!Twill.Options} names ("nstages", "queue_latency", "comm", ...);
   each value goes through the knob's parser, so an out-of-range or
   misspelled value answers ok:false with the table's message.  A field
   that is neither a knob nor one of the protocol fields in
   [request_fields] answers ok:false naming the field, so a typo is
   never silently ignored.

   Requests are cached by content hash at two levels mirroring the
   evaluation pipeline: the elaboration cache is keyed by the source
   text plus {!Twill.Options.extract_key} — the knobs extraction reads —
   while the response cache is keyed by every knob, so requests that
   differ in simulator configuration alone share one extracted design.
   That split is what makes the `dse` command cheap: a sweep touches
   each distinct extraction once, and a point result is cached under its
   group's elaboration digest plus every knob of the point itself, like
   a simulate response, so a sweep simulates only the points no earlier
   request simulated.  The point's own knobs include its queue depth: a
   comm-off point is evaluated on the group's design (extracted at the
   default depth) re-stamped to the point's depth, so points that differ
   only in depth share an elaboration but never a point result.
   Every read of the three caches (elaborations, responses, dse points)
   goes through one function, [lookup], which counts the hit or miss per
   request kind *and cache level* — "simulate:elab" vs "simulate:sim" —
   so `stats` shows which level a request kind actually hit instead of
   lumping both bumps under one key (a repeated simulate request that
   misses elaboration once and then hits the response cache reads as
   1 elab miss + N sim hits); the stats totals are sums over those
   counters.  The comm report is {!Twill.comm_summarize} over the two
   cached elaborations.
   Each connection is answered one line at a time, in order: a client
   that writes several requests before reading gets their responses in
   the order it sent them.  Lines are read by {!Client.recv_line}, the
   one reader both ends of the socket use, through the one read chunk
   (4 KiB) the connection owns for its life.  The worker pool serves the
   groups of one `dse` sweep. *)

module Sim = Twill_rtsim.Sim

type elab = {
  e_threaded : Twill.Dswp.threaded;
  e_comm : Twill.Comm.report; (* what the comm optimizer did at extraction *)
}

module Pareto = Twill_dse.Pareto

type t = {
  mu : Mutex.t;
  elabs : (string, elab) Hashtbl.t; (* digest -> elaborated design *)
  sims : (string, Json.t) Hashtbl.t; (* digest+options -> response body *)
  points : (string, Pareto.metrics) Hashtbl.t; (* digest+options -> dse point *)
  mutable requests : int;
  kind_hits : (string, int) Hashtbl.t; (* "kind:level" -> cache hits *)
  kind_misses : (string, int) Hashtbl.t;
  mutable stopping : bool;
  pool : Twill.Par.pool;
  started : float;
  mutable listen_fd : Unix.file_descr option;
}

let create ?workers () : t =
  {
    mu = Mutex.create ();
    elabs = Hashtbl.create 64;
    sims = Hashtbl.create 64;
    points = Hashtbl.create 64;
    requests = 0;
    kind_hits = Hashtbl.create 8;
    kind_misses = Hashtbl.create 8;
    stopping = false;
    pool = Twill.Par.pool ?workers ();
    started = Unix.gettimeofday ();
    listen_fd = None;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let bump tbl kind =
  Hashtbl.replace tbl kind
    (1 + Option.value (Hashtbl.find_opt tbl kind) ~default:0)

(* [tbl]'s entry for [key], counted as a hit or a miss of [kind] (a
   request kind and cache level, "simulate:elab"); [body] runs on a
   miss.  A concurrent request may have raced us to the same key: the
   first entry stays, so every later request shares one value. *)
let lookup (t : t) tbl ~(kind : string) (key : string) (body : unit -> 'a) :
    'a =
  let found =
    locked t (fun () ->
        let v = Hashtbl.find_opt tbl key in
        bump (if Option.is_some v then t.kind_hits else t.kind_misses) kind;
        v)
  in
  match found with
  | Some v -> v
  | None ->
      let v = body () in
      locked t (fun () ->
          match Hashtbl.find_opt tbl key with
          | Some v0 -> v0
          | None ->
              Hashtbl.replace tbl key v;
              v)

(* --- request decoding ---------------------------------------------------- *)

module O = Twill.Options

(* the knobs a request may set *)
let request_knobs =
  O.
    [
      nstages; sw_frac; unroll; queue_depth; queue_latency; fuel; comm;
      backend; mem_banks;
    ]

(* every field a request may carry: the protocol's own plus the knobs *)
let request_fields =
  [ "cmd"; "id"; "src"; "grid"; "sample"; "seed" ]
  @ List.map (fun (k : O.knob) -> k.name) request_knobs

let check_fields (j : Json.t) =
  match j with
  | Json.Obj kvs ->
      List.iter
        (fun (f, _) ->
          if not (List.mem f request_fields) then
            failwith ("unknown request field: " ^ f))
        kvs
  | _ -> ()

let options_of_req ?(base = Twill.default_options) (j : Json.t) :
    Twill.options =
  List.fold_left
    (fun o (k : O.knob) ->
      let text =
        match Json.find k.name j with
        | None -> None
        | Some (Json.Int i) -> Some (string_of_int i)
        | Some (Json.Float f) -> Some (O.float_to_string f)
        | Some (Json.Bool b) -> Some (string_of_bool b)
        | Some (Json.Str s) -> Some s
        | Some _ -> failwith (k.name ^ ": not a scalar")
      in
      match Option.map (fun s -> k.parse s o) text with
      | None -> o
      | Some (Ok o) -> o
      | Some (Error e) -> failwith e)
    base request_knobs

(* the request fields that carry [knobs] of [o] *)
let fields (knobs : O.knob list) (o : Twill.options) : (string * Json.t) list =
  List.map
    (fun (k : O.knob) ->
      let v = k.print o in
      ( k.name,
        match k.wire with
        | O.Int -> Json.Int (int_of_string v)
        | O.Float -> Json.Float (float_of_string v)
        | O.Bool -> Json.Bool (bool_of_string v)
        | O.Str -> Json.Str v ))
    knobs

let elab_digest (src : string) (opts : Twill.options) : string =
  Digest.to_hex (Digest.string (src ^ "\x00" ^ O.extract_key opts))

let sim_key (digest : string) (opts : Twill.options) : string =
  digest ^ ":" ^ O.key opts

(* The design extracted from [src] under [opts]: the body of an
   [elabs] lookup under [elab_digest src opts]. *)
let elab_of (src : string) (opts : Twill.options) () : elab =
  let e_threaded, e_comm = Twill.extract_comm ~opts (Twill.compile ~opts src) in
  { e_threaded; e_comm }

let source_of_req (j : Json.t) : string =
  match Json.str_field "src" j with
  | Some s -> s
  | None -> failwith "missing src"

(* --- command handlers ----------------------------------------------------- *)

let simulate (opts : Twill.options) (e : elab) : Sim.stats =
  let t = e.e_threaded in
  Sim.simulate_threaded ~config:(Twill.sim_config opts) t
    ~schedules:
      (Twill.Schedule.of_threaded ~backend:opts.backend
         ~mem_banks:opts.mem_banks t)

let handle_simulate (t : t) (j : Json.t) : Json.t =
  (* sim-level options come from *this* request, not from whichever
     request first elaborated the design *)
  let opts = options_of_req j in
  let src = source_of_req j in
  let digest = elab_digest src opts in
  let e = lookup t t.elabs ~kind:"simulate:elab" digest (elab_of src opts) in
  lookup t t.sims ~kind:"simulate:sim" (sim_key digest opts) (fun () ->
      let s = simulate opts e in
      Json.Obj
        [
          ("ok", Json.Bool true);
          ("digest", Json.Str digest);
          ("ret", Json.Int (Int32.to_int s.Sim.ret));
          ("cycles", Json.Int s.Sim.cycles);
          ("executed", Json.Int s.Sim.executed);
          ( "prints",
            Json.List
              (List.map (fun p -> Json.Int (Int32.to_int p)) s.Sim.prints) );
          ( "queue_peaks",
            Json.List
              (Array.to_list (Array.map (fun p -> Json.Int p) s.Sim.queue_peaks))
          );
          ("module_bus_waits", Json.Int s.Sim.module_bus_waits);
          ("memory_bus_waits", Json.Int s.Sim.memory_bus_waits);
        ])

(* The communication-optimizer report: {!Twill.comm_summarize} over two
   elaborations from the persistent cache — one with every pass off (the
   baseline) and one under the request's "comm" spec (default: all
   passes).  Both elaborations and the response are digest-keyed, so a
   repeated report (or a simulate request for the same design) is a pure
   cache hit. *)
let handle_comm (t : t) (j : Json.t) : Json.t =
  let opts =
    options_of_req ~base:{ Twill.default_options with comm = Twill.Comm.all } j
  in
  let src = source_of_req j in
  let base_opts = { opts with comm = Twill.Comm.none } in
  let digest = elab_digest src opts in
  let base_digest = elab_digest src base_opts in
  let e = lookup t t.elabs ~kind:"comm:elab" digest (elab_of src opts) in
  let base_e =
    lookup t t.elabs ~kind:"comm:elab" base_digest (elab_of src base_opts)
  in
  lookup t t.sims ~kind:"comm:sim" ("comm:" ^ sim_key digest opts) (fun () ->
      let s =
        Twill.comm_summarize ~opts ~base:base_e.e_threaded
          (e.e_threaded, e.e_comm)
      in
      let r = s.Twill.comm_rep in
      Json.Obj
        [
          ("ok", Json.Bool true);
          ("digest", Json.Str digest);
          ("base_digest", Json.Str base_digest);
          ("comm", Json.Str (Twill.Comm.show r.Twill.Comm.rconfig));
          ("ran", Json.List (List.map (fun p -> Json.Str p) r.Twill.Comm.ran));
          ("licm_hoists", Json.Int r.Twill.Comm.licm_hoists);
          ("merged", Json.Int (List.length r.Twill.Comm.merges));
          ("resized", Json.Int (List.length r.Twill.Comm.resizes));
          ("bursts", Json.Int (List.length r.Twill.Comm.burst_qids));
          ("ret", Json.Int (Int32.to_int s.Twill.comm_opt_ret));
          ("base_ret", Json.Int (Int32.to_int s.Twill.comm_base_ret));
          ("base_cycles", Json.Int s.Twill.comm_base_cycles);
          ("cycles", Json.Int s.Twill.comm_opt_cycles);
          ( "delta",
            Json.Int (s.Twill.comm_opt_cycles - s.Twill.comm_base_cycles) );
        ])

(* --- dse: a design-space sweep over the daemon's caches ------------------- *)

module Grid = Twill_dse.Grid
module Dse = Twill_dse.Dse

let sensitivity_json (s : Pareto.sensitivity) : Json.t =
  Json.Obj
    [
      ("axis", Json.Str s.Pareto.axis);
      ("value", Json.Str s.Pareto.value);
      ("n", Json.Int s.Pareto.n);
      ("mean_slowdown", Json.Float s.Pareto.mean_slowdown);
      ("min_slowdown", Json.Float s.Pareto.min_slowdown);
      ("max_slowdown", Json.Float s.Pareto.max_slowdown);
    ]

(* One sweep request through {!Dse.evaluate}: each extraction group
   resolves through the persistent elaboration cache (keyed like
   [elab_digest]), and each point through the point cache, keyed like a
   simulate response ("dse:" ^ [sim_key]) and counted as "dse:sim"; so
   a repeated or overlapping sweep neither re-extracts a group nor
   re-simulates a point.  Groups fan out over the pool, and the response
   carries the frontier, per-axis sensitivities and the reuse counters;
   [elabs_reused] counts this request's own elaboration hits. *)
let handle_dse (t : t) (j : Json.t) : Json.t =
  let grid =
    match Json.str_field "grid" j with
    | None -> Grid.default
    | Some spec -> (
        match Grid.parse spec with
        | Ok g -> g
        | Error e -> failwith ("grid: " ^ e))
  in
  let reused = Atomic.make 0 in
  let extract (p : Grid.point) =
    let src = Dse.source_of_kernel p.Grid.kernel in
    let opts = Dse.opts_of_point p in
    let digest = elab_digest src opts in
    let hit = ref true in
    let e =
      lookup t t.elabs ~kind:"dse:elab" digest (fun () ->
          hit := false;
          elab_of src opts ())
    in
    if !hit then Atomic.incr reused;
    (* every point of the group shares [p]'s extraction key, so
       [digest] is also the point's own [elab_digest]; the point's own
       options, its depth included, complete the key *)
    fun (q : Grid.point) ->
      let opts = q.Grid.opts in
      lookup t t.points ~kind:"dse:sim" ("dse:" ^ sim_key digest opts) (fun () ->
          Dse.eval_threaded opts e.e_threaded)
  in
  let s =
    Dse.evaluate ~map:(Twill.Par.pool_map t.pool) ~extract
      ?seed:(Json.int_field "seed" j) ?sample:(Json.int_field "sample" j) grid
  in
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("points", Json.Int (List.length s.Dse.results));
      ("extractions", Json.Int s.Dse.reuse.Dse.extractions);
      ("elabs_reused", Json.Int (Atomic.get reused));
      ( "frontier",
        Json.List
          (List.map (fun r -> Json.of_string (Dse.result_line r)) s.Dse.frontier)
      );
      ("sensitivity", Json.List (List.map sensitivity_json s.Dse.sensitivities));
    ]

let handle_stats (t : t) : Json.t =
  locked t (fun () ->
      let kinds =
        Hashtbl.fold (fun k _ acc -> k :: acc) t.kind_hits []
        @ Hashtbl.fold (fun k _ acc -> k :: acc) t.kind_misses []
        |> List.sort_uniq compare
      in
      let count tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0 in
      let total tbl = Hashtbl.fold (fun _ n acc -> acc + n) tbl 0 in
      Json.Obj
        [
          ("ok", Json.Bool true);
          ("requests", Json.Int t.requests);
          ("cache_hits", Json.Int (total t.kind_hits));
          ("cache_misses", Json.Int (total t.kind_misses));
          ( "by_kind",
            Json.Obj
              (List.map
                 (fun k ->
                   ( k,
                     Json.Obj
                       [
                         ("hits", Json.Int (count t.kind_hits k));
                         ("misses", Json.Int (count t.kind_misses k));
                       ] ))
                 kinds) );
          ("elaborations", Json.Int (Hashtbl.length t.elabs));
          ("simulations", Json.Int (Hashtbl.length t.sims));
          ("workers", Json.Int (Twill.Par.pool_workers t.pool));
          ("pid", Json.Int (Unix.getpid ()));
          ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started));
        ])

let handle (t : t) (j : Json.t) : Json.t =
  locked t (fun () -> t.requests <- t.requests + 1);
  let resp =
    try
      check_fields j;
      match Json.str_field "cmd" j with
      | Some "ping" ->
          Json.Obj
            [
              ("ok", Json.Bool true);
              ("pong", Json.Bool true);
              ("pid", Json.Int (Unix.getpid ()));
            ]
      | Some "stats" -> handle_stats t
      | Some "stop" ->
          locked t (fun () -> t.stopping <- true);
          Json.Obj [ ("ok", Json.Bool true); ("stopping", Json.Bool true) ]
      | Some "simulate" -> handle_simulate t j
      | Some "comm" -> handle_comm t j
      | Some "dse" -> handle_dse t j
      | Some other -> failwith ("unknown cmd: " ^ other)
      | None -> failwith "missing cmd"
    with e ->
      Json.Obj
        [
          ("ok", Json.Bool false);
          ("error", Json.Str (Printexc.to_string e));
        ]
  in
  (* echo the client's correlation id, if any *)
  match (Json.find "id" j, resp) with
  | Some id, Json.Obj kvs -> Json.Obj (("id", id) :: kvs)
  | _ -> resp

let handle_line (t : t) (line : string) : string =
  let resp =
    match Json.of_string line with
    | j -> handle t j
    | exception Json.Parse_error msg ->
        Json.Obj
          [ ("ok", Json.Bool false); ("error", Json.Str ("parse: " ^ msg)) ]
  in
  Json.to_string resp

(* --- connection loop ------------------------------------------------------ *)

(* Requests are read and answered one line at a time, with the client's
   line reader and its one read chunk per connection: a backlog of
   several lines is answered in order. *)
let serve_connection (t : t) fd =
  let c = Client.of_fd fd in
  let rec loop () =
    let line = Client.recv_line c in
    if String.trim line <> "" then Client.send_line c (handle_line t line);
    if not t.stopping then loop ()
  in
  (try loop () with _ -> ());
  (try Unix.close fd with _ -> ());
  if t.stopping then
    (* wake the accept loop so the daemon can exit: closing the listening
       socket does not interrupt a blocked [accept] on Linux, a
       connection does *)
    match t.listen_fd with
    | Some lfd -> (
        try
          let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> Unix.close s)
            (fun () -> Unix.connect s (Unix.getsockname lfd))
        with _ -> ())
    | None -> ()

let serve (t : t) ~(socket : string) : unit =
  (try Unix.unlink socket with _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX socket);
  Unix.listen lfd 64;
  t.listen_fd <- Some lfd;
  let rec accept_loop () =
    match Unix.accept lfd with
    | fd, _ when t.stopping -> Unix.close fd
    | fd, _ ->
        ignore (Thread.create (fun () -> serve_connection t fd) ());
        accept_loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    | exception Unix.Unix_error (_, _, _) when t.stopping -> ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close lfd with _ -> ());
      (try Unix.unlink socket with _ -> ());
      Twill.Par.pool_shutdown t.pool)
    accept_loop
