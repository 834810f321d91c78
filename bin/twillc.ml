(* twillc — the Twill command-line driver.

     twillc run NAME|FILE            execute under all three flows + report
     twillc ir NAME|FILE             dump optimised IR
     twillc threads NAME|FILE        dump extracted pipeline-stage functions
     twillc list                     list bundled benchmarks
     twillc emit-c NAME|FILE         emit the software master thread as C
     twillc emit-verilog NAME|FILE   emit the design's RTL (-o FILE, --check)
     twillc cosim NAME|FILE          co-simulate the emitted RTL vs rtsim
     twillc comm-report NAME|FILE    profile + optimize the DSWP channel graph
     twillc fuzz --seed N            differential fuzzing across the stack
     twillc dse [--grid SPEC]        design-space sweep -> Pareto frontier
     twillc daemon ...               talk to a running twilld

   NAME is a bundled CHStone kernel (twillc list), FILE a mini-C file.

   Option flags come from the option table (Twill.Options): each command
   names the knobs it exposes, and the table supplies the flag, its
   documentation and its parser. *)

open Cmdliner
module O = Twill.Options

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* One flag per knob, folded over [base]; a value the knob's parser
   rejects is a usage error carrying the table's message. *)
let opts_term ?(base = Twill.default_options) (knobs : O.knob list) :
    Twill.options Term.t =
  let set (k : O.knob) v o =
    match k.parse v o with Ok o -> o | Error e -> invalid_arg e
  in
  let arg (k : O.knob) =
    let doc =
      Arg.info [ Option.get k.flag ] ~docv:k.docv ~doc:k.doc
        ~absent:(k.print base)
    in
    match k.wire with
    | O.Bool ->
        Term.(
          const (fun b o -> if b then set k "true" o else o)
          $ Arg.(value & flag doc))
    | _ ->
        let valid =
          Arg.conv'
            ( (fun v -> Result.map (fun _ -> v) (k.parse v base)),
              Format.pp_print_string )
        in
        Term.(
          const (fun v o -> Option.fold ~none:o ~some:(fun v -> set k v o) v)
          $ Arg.(value & opt (some valid) None & doc))
  in
  List.fold_left
    (fun acc k -> Term.(const (fun f o -> f o) $ arg k $ acc))
    (Term.const base) knobs

(* the knobs of the compile-extract-simulate commands *)
let flow_knobs =
  O.
    [
      nstages; sw_frac; queue_depth; queue_latency; inline_aggressive; comm;
      backend; mem_banks;
    ]

let flow_opts = opts_term flow_knobs

(* Above one memory bank the runtime alias checker is armed, so
   dependence-oracle optimism traps instead of corrupting silently
   ([cosim] and [fuzz]). *)
let arm_checker (opts : Twill.options) =
  { opts with Twill.check_memdep = opts.Twill.mem_banks > 1 }

let no_auto =
  Arg.(
    value & flag
    & info [ "no-auto" ] ~doc:"Do not search stage counts; use --stages as-is.")

(* a kernel name from the bundled CHStone registry, or a mini-C file *)
let what =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME|FILE")

let source_of (what : string) : string =
  if Sys.file_exists what then read_file what
  else
    match Twill_chstone.Chstone.find what with
    | b -> b.Twill_chstone.Chstone.source
    | exception Failure _ ->
        Fmt.epr "twillc: %s is neither a file nor a bundled kernel (see \
                 twillc list)@." what;
        exit 1

let print_report (r : Twill.report) =
  Fmt.pr "== %s ==@." r.Twill.name;
  Fmt.pr "return value   : %ld (all three flows agree)@."
    r.Twill.sw.Twill.ret;
  Fmt.pr "pure SW        : %8d cycles   %6.1f mW@." r.Twill.sw.Twill.cycles
    r.Twill.sw.Twill.power_mw;
  Fmt.pr "pure HW (LegUp): %8d cycles   %6.1f mW   %5d LUTs@."
    r.Twill.hw.Twill.cycles r.Twill.hw.Twill.power_mw
    r.Twill.hw.Twill.area.Twill.Area.luts;
  Fmt.pr "Twill hybrid   : %8d cycles   %6.1f mW   %5d LUTs@."
    r.Twill.twill.Twill.scenario.Twill.cycles
    r.Twill.twill.Twill.scenario.Twill.power_mw
    r.Twill.twill.Twill.scenario.Twill.area.Twill.Area.luts;
  Fmt.pr "speedup vs SW  : %.2fx   vs pure HW: %.2fx@." r.Twill.speedup_vs_sw
    r.Twill.speedup_vs_hw;
  Fmt.pr "extraction     : %d HW threads, %d queues, %d semaphores@."
    r.Twill.twill.Twill.n_hw_threads r.Twill.twill.Twill.nqueues
    r.Twill.twill.Twill.nsems

let run_cmd =
  let run opts no_auto what =
    let r =
      Twill.evaluate ~opts ~auto_stages:(not no_auto)
        ~name:(Filename.basename what) (source_of what)
    in
    print_report r
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Compile and evaluate a bundled CHStone kernel or a mini-C file")
    Term.(const run $ flow_opts $ no_auto $ what)

let ir_cmd =
  let run opts what =
    let m = Twill.compile ~opts (source_of what) in
    Fmt.pr "%s@." (Twill_ir.Printer.modul_to_string m)
  in
  Cmd.v (Cmd.info "ir" ~doc:"Dump the optimised IR")
    Term.(const run $ flow_opts $ what)

let threads_cmd =
  let run opts what =
    let m = Twill.compile ~opts (source_of what) in
    let t = Twill.extract ~opts m in
    Array.iteri
      (fun s name ->
        let role =
          match t.Twill.Dswp.roles.(s) with
          | Twill.Partition.Sw -> "software"
          | Twill.Partition.Hw -> "hardware"
        in
        Fmt.pr "--- stage %d (%s) ---@.%s@." s role
          (Twill_ir.Printer.func_to_string
             (Twill.Ir.find_func t.Twill.Dswp.modul name)))
      t.Twill.Dswp.stages;
    Fmt.pr "queues:@.";
    Array.iter
      (fun (q : Twill.Threadgen.queue_info) ->
        Fmt.pr "  q%d %s %dx%db stage %d -> %d%s%s@." q.Twill.Threadgen.qid
          q.Twill.Threadgen.purpose q.Twill.Threadgen.depth
          q.Twill.Threadgen.width_bits q.Twill.Threadgen.src_stage
          q.Twill.Threadgen.dst_stage
          (match q.Twill.Threadgen.merged_into with
          | Some t -> Printf.sprintf " (merged into q%d)" t
          | None -> "")
          (if q.Twill.Threadgen.burst then " (burst)" else ""))
      t.Twill.Dswp.queues
  in
  Cmd.v (Cmd.info "threads" ~doc:"Dump the extracted pipeline threads")
    Term.(const run $ flow_opts $ what)

let list_cmd =
  let run () =
    List.iter
      (fun (b : Twill_chstone.Chstone.benchmark) ->
        Fmt.pr "%-10s %s@." b.Twill_chstone.Chstone.name
          b.Twill_chstone.Chstone.description)
      Twill_chstone.Chstone.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List bundled benchmarks") Term.(const run $ const ())

let emit_c_cmd =
  let run opts what =
    let m = Twill.compile ~opts (source_of what) in
    let t = Twill.extract ~opts m in
    let master = t.Twill.Dswp.stages.(t.Twill.Dswp.master) in
    print_string (Twill_cgen.Cemit.emit_sw_program t.Twill.Dswp.modul ~entry:master)
  in
  Cmd.v
    (Cmd.info "emit-c"
       ~doc:"Emit the software master thread as C against the Twill runtime API")
    Term.(const run $ flow_opts $ what)

let emit_verilog_cmd =
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the Verilog to $(docv) instead of standard output.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Parse the emitted design and elaborate each of its modules \
             in the RTL simulator; exit nonzero, naming the line, on the \
             first error.")
  in
  let run opts output check what =
    let m = Twill.compile ~opts (source_of what) in
    let t = Twill.extract ~opts m in
    let design =
      Twill_vgen.Vruntime.emit
        (Twill.Schedule.of_threaded ~backend:opts.Twill.backend
           ~mem_banks:opts.Twill.mem_banks t)
        t
    in
    (match output with
    | None -> print_string design
    | Some f ->
        let oc = open_out f in
        output_string oc design;
        close_out oc);
    if check then
      match Twill.Vsim.check design with
      | Ok () -> Fmt.epr "emit-verilog: check passed@."
      | Error (msg, line) ->
          Fmt.epr "emit-verilog: check failed: line %d: %s@." line msg;
          exit 1
  in
  Cmd.v
    (Cmd.info "emit-verilog"
       ~doc:
         "Emit the hardware threads and the runtime system as Verilog \
          (Figure 4.1)")
    Term.(const run $ flow_opts $ output $ check $ what)

let cosim_cmd =
  let vcd =
    Arg.(
      value
      & opt (some string) None
      & info [ "vcd" ] ~docv:"PREFIX"
          ~doc:"Dump one VCD waveform per RTL instance under $(docv).")
  in
  let run opts vcd name =
    let opts = arm_checker opts in
    let m = Twill.compile ~opts (source_of name) in
    let t = Twill.extract ~opts m in
    Fmt.pr "== cosim %s ==@." (Filename.basename name);
    let r =
      try Twill.cosim ~opts ?vcd t
      with Twill.Sim.Alias_violation msg ->
        Fmt.pr "verdict        : TRAP %s@." msg;
        exit 1
    in
    Fmt.pr "engine         : %s@." r.Twill.Cosim.rtl_engine;
    Fmt.pr "RTL (vsim)     : ret=%ld  %8d harness cycles@."
      r.Twill.Cosim.rtl_ret r.Twill.Cosim.rtl_cycles;
    Fmt.pr "model (rtsim)  : ret=%ld  %8d cycles@." r.Twill.Cosim.model_ret
      r.Twill.Cosim.model_cycles;
    Fmt.pr "prints         : %d (RTL) vs %d (model)@."
      (List.length r.Twill.Cosim.rtl_prints)
      (List.length r.Twill.Cosim.model_prints);
    if r.Twill.Cosim.agree then Fmt.pr "verdict        : AGREE@."
    else begin
      Fmt.pr "verdict        : DISAGREE@.";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "cosim"
       ~doc:
         "Co-simulate the emitted RTL of a benchmark or mini-C file against \
          the rtsim reference.  Above one memory bank the runtime alias \
          checker is armed in the rtsim reference")
    Term.(const run $ flow_opts $ vcd $ what)

let comm_report_cmd =
  let run opts name =
    let m = Twill.compile ~opts (source_of name) in
    let s = Twill.comm_summarize ~opts m in
    Fmt.pr "== comm-report %s ==@." (Filename.basename name);
    List.iter (Fmt.pr "%s@.") (Twill.Comm.report_lines s.Twill.comm_rep);
    Fmt.pr "seed profile (unoptimized extraction):@.";
    Fmt.pr "  %-4s %-6s %8s %8s %9s %9s %7s %4s %6s@." "qid" "kind" "prod"
      "cons" "stallF" "stallE" "busW" "peak" "runs2+";
    Array.iteri
      (fun qid (p : Twill.Sim.queue_profile) ->
        if p.Twill.Sim.qp_produces > 0 then
          let q = s.Twill.comm_queues.(qid) in
          let runs =
            Array.fold_left ( + ) 0
              (Array.sub p.Twill.Sim.qp_prod_bursts 1
                 (Array.length p.Twill.Sim.qp_prod_bursts - 1))
          in
          Fmt.pr "  q%-3d %-6s %8d %8d %9d %9d %7d %4d %6d@." qid
            q.Twill.Threadgen.purpose p.Twill.Sim.qp_produces
            p.Twill.Sim.qp_consumes p.Twill.Sim.qp_stall_full
            p.Twill.Sim.qp_stall_empty p.Twill.Sim.qp_bus_waits
            p.Twill.Sim.qp_peak runs)
      s.Twill.comm_profile;
    Fmt.pr "cycles         : %d (base) -> %d (optimized), delta %+d@."
      s.Twill.comm_base_cycles s.Twill.comm_opt_cycles
      (s.Twill.comm_opt_cycles - s.Twill.comm_base_cycles)
  in
  Cmd.v
    (Cmd.info "comm-report"
       ~doc:
         "Profile the DSWP channel graph of a benchmark or mini-C file and \
          show what the communication optimizer ($(b,--comm-opt), default \
          $(b,all)) does to it: per-channel occupancy/stall/burst counters, \
          pass actions, and the base-vs-optimized cycle counts")
    Term.(
      const run
      $ opts_term ~base:{ Twill.default_options with comm = Twill.Comm.all }
          flow_knobs
      $ what)

let fuzz_cmd =
  let module F = Twill_fuzz in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Campaign seed.")
  in
  let cases =
    Arg.(
      value & opt int 100
      & info [ "cases" ] ~doc:"Number of generated programs.")
  in
  let max_stage =
    Arg.(
      value
      & opt
          (enum
             (List.map
                (fun l -> (F.Oracle.limit_to_string l, l))
                F.Oracle.all_limits))
          F.Oracle.L_vsim
      & info [ "max-stage" ] ~docv:"STAGE"
          ~doc:
            "Deepest observation point to compare: $(b,ast), $(b,ir), \
             $(b,opt), $(b,rtsim) or $(b,vsim) (the default; RTL \
             co-simulation, much slower per case).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Write minimized repros and a MANIFEST into $(docv).")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"DIR"
          ~doc:
            "Instead of generating cases, re-run every repro in $(docv) and \
             report which still diverge.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Exit nonzero if any divergence is found or the alias checker \
             trapped (or, with $(b,--replay), if any repro went stale).")
  in
  let fuzz_backend =
    Arg.(
      value
      & opt
          (enum
             (List.map
                (fun b -> (F.Oracle.backends_to_string b, b))
                F.Oracle.all_backends))
          F.Oracle.B_both
      & info [ "backend" ] ~docv:"BACKEND"
          ~doc:
            "RTL lowering(s) the vsim observation points exercise: \
             $(b,fsm), $(b,dataflow) or $(b,both) (the default: every \
             RTL-reaching case co-simulates both backends and any \
             disagreement is a divergence).")
  in
  let run seed cases limit backends out replay opts strict =
    match replay with
    | Some dir ->
        let rs = F.Campaign.replay ~dir () in
        List.iter
          (fun (r : F.Campaign.replay_result) ->
            Fmt.pr "%-18s %s  (%s)@." r.F.Campaign.rp_file
              (if r.F.Campaign.rp_still_diverges then "DIVERGES" else "agrees")
              r.F.Campaign.rp_detail)
          rs;
        let stale =
          List.filter (fun r -> not r.F.Campaign.rp_still_diverges) rs
        in
        Fmt.pr "replayed %d repro(s), %d stale@." (List.length rs)
          (List.length stale);
        if strict && stale <> [] then exit 1
    | None ->
        let opts = arm_checker opts in
        let t0 = Unix.gettimeofday () in
        let s = F.Campaign.run ~opts ~limit ~backends ~seed ~cases () in
        let dt = Unix.gettimeofday () -. t0 in
        print_string (F.Campaign.summary_to_string s);
        (match out with
        | Some dir ->
            let files = F.Campaign.write_corpus ?break_pass:opts.Twill.pipeline_break ~dir s in
            Fmt.pr "  corpus: %d file(s) in %s@." (List.length files) dir
        | None -> ());
        (* timing goes to stderr so stdout stays reproducible *)
        Fmt.epr "fuzz: %d cases in %.1fs (%.1f cases/sec)@." cases dt
          (float_of_int cases /. dt);
        if strict && F.Campaign.failed s then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differentially fuzz the whole stack: random mini-C programs \
          through every observation point (AST, IR, each optimisation \
          prefix, rtsim, RTL co-simulation), with shrinking and pass \
          bisection of any divergence.  Above one memory bank the runtime \
          alias checker is armed, so dependence-oracle optimism surfaces \
          as a trap (which fails $(b,--strict)) instead of silent \
          corruption")
    Term.(
      const run $ seed $ cases $ max_stage $ fuzz_backend $ out $ replay
      $ opts_term O.[ pipeline_break; mem_banks ]
      $ strict)

(* --- twilld client: `twillc daemon ...` --------------------------------- *)

module Serve_json = Twill_serve.Json
(* ------------------------------------------------------------------ *)
(* dse: design-space sweeps                                            *)
(* ------------------------------------------------------------------ *)

module Dse_grid = Twill_dse.Grid
module Dse_pareto = Twill_dse.Pareto
module Dse = Twill_dse.Dse

let grid_arg =
  Arg.(
    value & opt string ""
    & info [ "grid" ] ~docv:"SPEC"
        ~doc:
          "Grid spec, e.g. $(b,kernels=mips,sha;queue_latency=2,8,32); \
           unnamed axes keep the default sweep's values.")

let sample_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "sample" ] ~docv:"N" ~doc:"Evaluate a deterministic N-point subset.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Sampling seed.")

let dse_cmd =
  let run grid_spec sample seed json out cold =
    let grid =
      if grid_spec = "" then Dse_grid.default
      else
        match Dse_grid.parse grid_spec with
        | Ok g -> g
        | Error e ->
            Fmt.epr "bad --grid: %s@." e;
            exit 2
    in
    let t0 = Unix.gettimeofday () in
    let s = Dse.run ~seed ?sample grid in
    let wall = Unix.gettimeofday () -. t0 in
    let r = s.Dse.reuse in
    Fmt.epr
      "%d points in %.2fs (%.0f/s): %d extractions, %d simulations; extract \
       hit-rate %.1f%%@."
      r.Dse.points wall
      (float_of_int r.Dse.points /. wall)
      r.Dse.extractions r.Dse.simulations
      (100.0 *. Dse.hit_rate ~paid:r.Dse.extractions ~total:r.Dse.points);
    if cold then begin
      let t1 = Unix.gettimeofday () in
      let c = Dse.run_cold ~seed ?sample grid in
      let cold_wall = Unix.gettimeofday () -. t1 in
      let same = Dse.results_digest c.Dse.results = Dse.results_digest s.Dse.results in
      Fmt.epr
        "cold (no grouping): %.2fs — grouped speedup %.1fx, results %s@."
        cold_wall (cold_wall /. wall)
        (if same then "identical" else "DIVERGED");
      if not same then exit 1
    end;
    if json then begin
      let body = Dse.json_of_sweep s in
      match out with
      | None -> print_string body
      | Some path ->
          let oc = open_out path in
          output_string oc body;
          close_out oc;
          Fmt.epr "wrote %s@." path
    end
    else begin
      Fmt.pr "Pareto frontier (%d of %d points):@." (List.length s.Dse.frontier)
        (List.length s.Dse.results);
      Fmt.pr "  %-34s %10s %8s %10s@." "point" "cycles" "LUTs" "power";
      List.iter
        (fun (res : Dse_pareto.result) ->
          let m = res.Dse_pareto.metrics in
          Fmt.pr "  %-34s %10d %8d %8.1fmW@."
            (Dse_grid.point_label res.Dse_pareto.point)
            m.Dse_pareto.cycles m.Dse_pareto.luts m.Dse_pareto.power_mw)
        s.Dse.frontier;
      Fmt.pr "sensitivity (mean slowdown vs axis baseline):@.";
      List.iter
        (fun (sv : Dse_pareto.sensitivity) ->
          Fmt.pr "  %-14s = %-6s %6.3fx  (min %.3f, max %.3f, n=%d)@."
            sv.Dse_pareto.axis sv.Dse_pareto.value sv.Dse_pareto.mean_slowdown
            sv.Dse_pareto.min_slowdown sv.Dse_pareto.max_slowdown
            sv.Dse_pareto.n)
        s.Dse.sensitivities
    end
  in
  Cmd.v
    (Cmd.info "dse"
       ~doc:
         "Sweep a design-space grid (kernel x partition x queue x backend) \
          with one extraction per group of points that share it, and report \
          the Pareto frontier over (cycles, LUTs, power)")
    Term.(
      const run $ grid_arg $ sample_arg $ seed_arg
      $ Arg.(value & flag & info [ "json" ] ~doc:"Emit the sweep as JSON.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "out" ] ~docv:"FILE" ~doc:"Write the JSON to FILE.")
      $ Arg.(
          value & flag
          & info [ "cold" ]
              ~doc:
                "Also run the sweep with one extraction per point and report \
                 the grouped sweep's speedup (exits 1 if results differ)."))

module Serve_client = Twill_serve.Client
module Serve_server = Twill_serve.Server

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/twilld.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"twilld Unix-domain socket path.")

let with_client socket f =
  let c = Serve_client.connect ~retries:100 socket in
  Fun.protect ~finally:(fun () -> Serve_client.close c) (fun () -> f c)

let daemon_ping_cmd =
  let run socket =
    with_client socket (fun c ->
        let r = Serve_client.request c (Serve_json.Obj [ ("cmd", Serve_json.Str "ping") ]) in
        Fmt.pr "%s@." (Serve_json.to_string r);
        if Serve_json.bool_field "ok" r <> Some true then exit 1)
  in
  Cmd.v (Cmd.info "ping" ~doc:"Probe a running twilld") Term.(const run $ socket_arg)

let daemon_stats_cmd =
  let run socket =
    with_client socket (fun c ->
        Fmt.pr "%s@."
          (Serve_json.to_string
             (Serve_client.request c (Serve_json.Obj [ ("cmd", Serve_json.Str "stats") ]))))
  in
  Cmd.v (Cmd.info "stats" ~doc:"Print twilld cache/request counters")
    Term.(const run $ socket_arg)

let daemon_stop_cmd =
  let run socket =
    with_client socket (fun c ->
        Fmt.pr "%s@."
          (Serve_json.to_string
             (Serve_client.request c (Serve_json.Obj [ ("cmd", Serve_json.Str "stop") ]))))
  in
  Cmd.v (Cmd.info "stop" ~doc:"Shut a running twilld down")
    Term.(const run $ socket_arg)

(* the knobs twillc's simulate-style daemon commands send *)
let simulate_knobs = O.[ nstages; queue_depth; queue_latency; backend; mem_banks ]

let request cmd knobs opts what =
  Serve_json.Obj
    ((("cmd", Serve_json.Str cmd) :: ("src", Serve_json.Str (source_of what))
     :: Serve_server.fields knobs opts))

let print_response r =
  Fmt.pr "%s@." (Serve_json.to_string r);
  if Serve_json.bool_field "ok" r <> Some true then exit 1

let daemon_simulate_cmd =
  let run socket opts what =
    with_client socket (fun c ->
        print_response
          (Serve_client.request c (request "simulate" simulate_knobs opts what)))
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Simulate a kernel (bundled name or mini-C file) through twilld")
    Term.(const run $ socket_arg $ opts_term simulate_knobs $ what)

let daemon_check_cmd =
  let run socket opts whats =
    (* the CI smoke: every daemon response must be byte-identical to the
       same request handled in-process (zero-worker local server) *)
    let local = Serve_server.create ~workers:0 () in
    let failures = ref 0 in
    with_client socket (fun c ->
        List.iter
          (fun what ->
            let req = request "simulate" simulate_knobs opts what in
            let remote = Serve_json.to_string (Serve_client.request c req) in
            let here = Serve_json.to_string (Serve_server.handle local req) in
            if remote = here then Fmt.pr "%-10s OK %s@." what remote
            else begin
              incr failures;
              Fmt.pr "%-10s MISMATCH@.  daemon:     %s@.  in-process: %s@."
                what remote here
            end)
          whats);
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Simulate kernels through twilld and assert the responses are \
          byte-identical to in-process results (exit 1 on any mismatch)")
    Term.(
      const run $ socket_arg $ opts_term simulate_knobs
      $ Arg.(non_empty & pos_all string [] & info [] ~docv:"NAME|FILE..."))

let daemon_dse_cmd =
  let run socket grid_spec sample seed =
    with_client socket (fun c ->
        let req =
          Serve_json.Obj
            (("cmd", Serve_json.Str "dse")
            :: (if grid_spec = "" then []
                else [ ("grid", Serve_json.Str grid_spec) ])
            @ (match sample with
              | None -> []
              | Some n -> [ ("sample", Serve_json.Int n) ])
            @ [ ("seed", Serve_json.Int seed) ])
        in
        print_response (Serve_client.request c req))
  in
  Cmd.v
    (Cmd.info "dse"
       ~doc:
         "Run a design-space sweep on twilld; the daemon caches every \
          extraction and point result, so a sweep simulates only the points \
          no earlier request simulated")
    Term.(const run $ socket_arg $ grid_arg $ sample_arg $ seed_arg)

let daemon_comm_cmd =
  let knobs = O.[ nstages; queue_depth; queue_latency; comm ] in
  let run socket opts what =
    with_client socket (fun c ->
        print_response (Serve_client.request c (request "comm" knobs opts what)))
  in
  Cmd.v
    (Cmd.info "comm"
       ~doc:
         "Run the communication-pattern report for a kernel through twilld \
          (digest-cached like every other daemon request)")
    Term.(
      const run $ socket_arg
      $ opts_term ~base:{ Twill.default_options with comm = Twill.Comm.all } knobs
      $ what)

let daemon_cmd =
  Cmd.group
    (Cmd.info "daemon"
       ~doc:
         "Talk to a running twilld (persistent compile/simulate service); \
          start one with the twilld executable")
    [
      daemon_ping_cmd; daemon_stats_cmd; daemon_stop_cmd; daemon_simulate_cmd;
      daemon_check_cmd; daemon_dse_cmd; daemon_comm_cmd;
    ]

let () =
  let doc = "Twill: hybrid microcontroller-FPGA parallelising compiler" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "twillc" ~doc)
          [
            run_cmd; ir_cmd; threads_cmd; list_cmd; emit_c_cmd;
            emit_verilog_cmd; cosim_cmd; comm_report_cmd; fuzz_cmd; dse_cmd;
            daemon_cmd;
          ]))
