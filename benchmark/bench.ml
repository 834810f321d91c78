(* One benchmark run of one workload: set-up timing, the timed loop (or,
   traced, an untraced half and a traced half), and the result object
   with every metric BENCHMARK.json names, in its order. *)

open Workload

(* Per-layer metrics of two kinds are read off their names in
   BENCHMARK.json: "<span>.self_pct" is a trace span's self time as a
   share of the traced op wall time, and a metric in unit "count" is a
   trace counter per traced op.  Either reads 0 on a workload that never
   opens the span or bumps the counter. *)
let span_of_metric (name : string) : string option =
  let suffix = ".self_pct" in
  if String.ends_with ~suffix name then
    Some (String.sub name 0 (String.length name - String.length suffix))
  else None

let counters =
  List.filter_map
    (fun (m : Metric.t) -> if m.unit = "count" then Some m.name else None)
    Metric.per_layer

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** in BENCHMARK.json's order *)
  details : (string * float) list;  (** extra readings for the table *)
  errors : string list;
}

(* --- set-up ----------------------------------------------------------------- *)

(* Exec to ready: a fresh copy of this program generates the workload's
   inputs (and, for twilld-session, starts the daemon and waits for its
   pong) and prints "ready". *)
let cold_start (w : t) ~seed : float =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = Trace.now () in
  let pid =
    Unix.create_process exe
      [| exe; "--setup-probe"; "--workload"; name w; "--seed"; string_of_int seed |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let ready = try input_line ic = "ready" with End_of_file -> false in
  let dt = Trace.now () -. t0 in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 when ready -> dt
  | _ -> failwith (name w ^ ": set-up probe failed")

let setup_probe (w : t) ~seed =
  let st = prepare w ~seed in
  print_endline "ready";
  release st

(* Exec to ready takes a few milliseconds on the in-process workloads, so
   process start-up noise is most of it: the median of nine. *)
let cold_starts = 9

(* --- metrics --------------------------------------------------------------- *)

(* CHStone ops are eight kernels of very different sizes, so each
   kernel's median latency stands for it: throughput is one pass's worth
   of medians, and the percentiles are taken over the eight medians (over
   raw samples they would land on a kernel boundary and jump between
   runs).  Elsewhere throughput is the median rate over windows of ops and
   the percentiles are over every op. *)
let end_to_end_metrics (w : t) (acc : acc) ~marks ~wall =
  let lat, ops_per_s =
    match w with
    | Chstone_flow | Chstone_cosim ->
        let m =
          List.map
            (fun (b : Twill_chstone.Chstone.benchmark) ->
              Stats.median
                (List.filter_map
                   (fun (k, s) -> if k = b.name then Some s else None)
                   acc.samples))
            Twill_chstone.Chstone.all
        in
        (m, float_of_int (List.length m) /. List.fold_left ( +. ) 0. m)
    | Gen_compile | Twilld_session ->
        let rec rates = function
          | (t1, n1) :: ((t0, n0) :: _ as rest) ->
              (float_of_int (n1 - n0) /. (t1 -. t0)) :: rates rest
          | _ -> []
        in
        ( List.map snd acc.samples,
          match rates marks with
          | [] -> float_of_int acc.attempted /. wall
          | r -> Stats.median r )
  in
  let lat = List.map (fun s -> s *. 1e3) lat in
  [
    ("ops_per_s", ops_per_s);
    ("latency_p50_ms", Stats.percentile 50. lat);
    ("latency_p99_ms", Stats.percentile 99. lat);
  ]

(* The per-layer metrics that are neither a span share nor a counter,
   each with its reading on this workload, if it has one. *)
let derived (st : state) (tr : Trace.summary) ~overhead : (string * float option) list =
  let self l = Option.value (List.assoc_opt l tr.Trace.self) ~default:0. in
  let rate cycles secs = if secs > 0. then cycles /. secs else 0. in
  let designs =
    match st with
    | Chstone c -> Some (List.concat (Hashtbl.fold (fun _ ds acc -> ds :: acc) c.results []))
    | Gen _ | Twilld _ -> None
  in
  let on_designs f = Option.map f designs in
  let stats =
    match st with
    | Twilld s -> (
        match Session.command s.daemon [ Session.Stats ] with
        | [ (_, _, resp) ] -> Some (Twill_serve.Json.of_string resp)
        | _ -> None)
    | Chstone _ | Gen _ -> None
  in
  [
    ( "sim_cycles_geomean",
      Some
        (Stats.geomean
           (match st with
           | Chstone _ ->
               List.map (fun d -> float_of_int d.cycles) (Option.get designs)
           | Gen g -> gen_cycles g
           | Twilld s -> twilld_kernel_cycles s)) );
    ("luts_total", on_designs (fun ds -> float_of_int (List.fold_left (fun a d -> a + d.luts) 0 ds)));
    ( "cycle_model_error",
      on_designs (fun ds ->
          Stats.geomean
            (List.filter_map
               (fun d ->
                 if d.rtl_cycles = 0 then None
                 else
                   let r = float_of_int d.rtl_cycles /. float_of_int d.cycles in
                   Some (Float.max r (1. /. r)))
               ds)) );
    ("serve.elab_hit_ratio", Option.map (fun j -> Session.hit_ratio j "elab") stats);
    ("serve.sim_hit_ratio", Option.map (fun j -> Session.hit_ratio j "sim") stats);
    ( "rtsim.sim_cycles_per_s",
      Some
        (rate (Trace.counter "rtsim.sim_cycles")
           (self "rtsim.sw" +. self "rtsim.hw" +. self "rtsim.twill")) );
    ("vsim.rtl_cycles_per_s", Some (rate (Trace.counter "vsim.rtl_cycles") (self "vsim")));
    ("trace.coverage", Some tr.Trace.coverage);
    ("trace.overhead", Some overhead);
  ]

(* Every per-layer metric, in BENCHMARK.json's order.  A metric the
   workload has no reading for is 0. *)
let layer_metrics (st : state) (tr : Trace.summary) ~overhead =
  let self l = Option.value (List.assoc_opt l tr.Trace.self) ~default:0. in
  let per_op x = if tr.Trace.ops = 0 then 0. else x /. float_of_int tr.Trace.ops in
  let derived = derived st tr ~overhead in
  List.map
    (fun (m : Metric.t) ->
      ( m.name,
        match span_of_metric m.name with
        | Some l -> if tr.Trace.op_wall > 0. then 100. *. self l /. tr.Trace.op_wall else 0.
        | None when m.unit = "count" -> per_op (Trace.counter m.name)
        | None -> (
            match List.assoc_opt m.name derived with
            | Some v -> Option.value v ~default:0.
            | None -> failwith ("BENCHMARK.json names a metric the benchmark does not compute: " ^ m.name)) ))
    Metric.per_layer

(* --- one run ----------------------------------------------------------------- *)

(* Steps the workload for [seconds] on a fresh accumulator and returns it
   with the throughput and latency readings of that stretch. *)
let timed (w : t) (st : state) ~seconds ?(after_step = fun (_ : acc) -> ()) () =
  let acc = new_acc () in
  let marks = ref [ (Trace.now (), 0) ] in
  let wall =
    repeat ~seconds (fun () ->
        step acc st ();
        after_step acc;
        if acc.next_id - snd (List.hd !marks) >= window w then
          marks := (Trace.now (), acc.next_id) :: !marks)
  in
  (acc, end_to_end_metrics w acc ~marks:!marks ~wall)

let run ?trace_out (w : t) ~seed ~seconds ~trace : result =
  let setup =
    if trace then []
    else
      [
        ( "setup_s",
          Stats.median (List.init cold_starts (fun _ -> cold_start w ~seed)) );
      ]
  in
  let st = prepare w ~seed in
  Fun.protect
    ~finally:(fun () -> release st)
    (fun () ->
      let accs, metrics, details =
        if not trace then begin
          let rss_kb = ref 0 in
          let acc, m =
            timed w st ~seconds
              ~after_step:(fun acc ->
                if !rss_kb = 0 && acc.next_id >= rss_checkpoint w then
                  rss_kb := peak_rss_kb st)
              ()
          in
          if !rss_kb = 0 then rss_kb := peak_rss_kb st;
          let m = m @ setup @ [ ("peak_rss_mb", float_of_int !rss_kb /. 1024.) ] in
          ( [ acc ],
            List.map
              (fun (e : Metric.t) ->
                match List.assoc_opt e.name m with
                | Some v -> (e.name, v)
                | None -> failwith ("no reading for end-to-end metric " ^ e.name))
              Metric.end_to_end,
            [ ("ops", float_of_int acc.attempted) ] )
        end
        else begin
          (* the overhead compares the two halves' throughput readings, which
             leave out the first half's cold start *)
          let half = seconds /. 2. in
          let acc0, m0 = timed w st ~seconds:half () in
          Trace.start ();
          let acc1, m1 = timed w st ~seconds:half () in
          Trace.stop ();
          let tr = Trace.summarize () in
          Option.iter Trace.write_chrome trace_out;
          let rate0 = List.assoc "ops_per_s" m0 and rate1 = List.assoc "ops_per_s" m1 in
          (* per-command p50 latency, for the table *)
          let p50 label =
            ( Printf.sprintf "serve.%s_ms_p50" label,
              Stats.percentile 50.
                (List.filter_map
                   (fun (k, x) -> if k = label then Some (x *. 1e3) else None)
                   acc1.samples) )
          in
          ( [ acc0; acc1 ],
            layer_metrics st tr ~overhead:((rate0 /. rate1) -. 1.),
            (match st with
            | Twilld _ -> List.map p50 (List.sort_uniq compare (List.map fst acc1.samples))
            | Chstone _ | Gen _ -> [])
            @ List.map (fun (l, s) -> (l ^ ".self_s", s)) tr.Trace.self
            @ [ ("traced_ops", float_of_int tr.Trace.ops); ("untraced_ops_per_s", rate0) ] )
        end
      in
      let checks = new_acc () in
      (match st with Twilld s -> cross_check checks s ~seed | _ -> ());
      let accs = accs @ [ checks ] in
      let sum f = List.fold_left (fun n (a : acc) -> n + f a) 0 accs in
      let failed = sum (fun (a : acc) -> a.failed) in
      {
        correct = failed = 0;
        attempted = sum (fun (a : acc) -> a.attempted);
        failed;
        metrics;
        details = details @ [ ("skipped", float_of_int (sum (fun (a : acc) -> a.skipped))) ];
        errors = List.concat_map (fun (a : acc) -> List.rev a.errors) accs;
      })

(* --- output ---------------------------------------------------------------- *)

let number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let to_json (r : result) : string =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (n, v) ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} n (number v)
              (Metric.unit_of n))
          r.metrics))

let print_table oc (w : t) (r : result) =
  Printf.fprintf oc "== %s: %d ops, %d failed ==\n" (name w) r.attempted r.failed;
  List.iter
    (fun (n, v) -> Printf.fprintf oc "  %-28s %14.6g %s\n" n v (Metric.unit_of n))
    (r.metrics @ r.details);
  List.iteri
    (fun i e -> if i < 5 then Printf.fprintf oc "  error: %s\n" e)
    r.errors;
  flush oc
