(* Twill — the end-to-end compiler + runtime driver (thesis Fig. 3.1 and
   Fig. 5.1): mini-C source -> IR -> standard optimisation pipeline ->
   DSWP thread extraction -> HW/SW split -> LegUp-substitute scheduling ->
   cycle-accurate simulation, plus the two baselines the thesis evaluates
   against (pure software on the Microblaze model, pure hardware through
   the LegUp-substitute flow). *)

module Ir = Twill_ir.Ir
module Interp = Twill_ir.Interp
module Minic = Twill_minic.Minic
module Pipeline = Twill_passes.Pipeline
module Partition = Twill_dswp.Partition
module Threadgen = Twill_dswp.Threadgen
module Dswp = Twill_dswp.Dswp
module Schedule = Twill_hls.Schedule
module Area = Twill_hls.Area
module Power = Twill_hls.Power
module Sim = Twill_rtsim.Sim
module Comm = Twill_comm.Comm
module Vruntime = Twill_vgen.Vruntime
module Vparse = Twill_vsim.Vparse
module Vsim = Twill_vsim.Vsim
module Cosim = Twill_vsim.Cosim
module Par = Par
module Options = Options

type options = Options.t = {
  partition : Partition.config;
  queue_depth : int;
  queue_latency : int;
  inline_aggressive : bool;
  inline_threshold : int;
  unroll : bool;
  resources : Schedule.resources;
  modulo : bool;
  fuel : int;
  backend : Schedule.backend;  (* RTL lowering for hardware partitions *)
  pipeline_break : string option;
  comm : Comm.config;  (* communication-pattern optimizer passes *)
  mem_banks : int;  (* shared-memory banks (Memdep.plan); 1 = unbanked *)
  check_memdep : bool;  (* runtime alias checker (debug) *)
}

let default_options = Options.default

(* --- compilation -------------------------------------------------------- *)

let pipeline_options (opts : options) : Pipeline.options =
  {
    Pipeline.default with
    inline_aggressive = opts.inline_aggressive;
    inline_threshold = opts.inline_threshold;
    unroll = opts.unroll;
    break_pass = opts.pipeline_break;
  }

(* mini-C source -> optimised IR module. *)
let compile ?(opts = default_options) (src : string) : Ir.modul =
  let m = Minic.compile src in
  Pipeline.run ~opts:(pipeline_options opts) m;
  m

(* One instrumented interpreter run collecting per-block execution counts
   of [main] — the partitioner's weights are profile-guided, like running
   the thesis's flow on top of LLVM's profiling infrastructure. *)
let profile_blocks ?(opts = default_options) (m : Ir.modul) : int array =
  let main = Ir.find_func m "main" in
  let counts = Array.make (Twill_ir.Vec.length main.Ir.blocks) 0 in
  let block_cost (f : Ir.func) (b : Ir.block) =
    if f == main then counts.(b.Ir.bid) <- counts.(b.Ir.bid) + 1;
    0
  in
  (try ignore (Interp.run ~fuel:opts.fuel ~block_cost m)
   with Interp.Out_of_fuel | Interp.Trap _ -> ());
  counts

(* [resources] and [modulo] have one legal value each: every design is
   scheduled with the defaults (Schedule.table). *)
let sim_config (opts : options) : Sim.config =
  if opts.resources <> Schedule.default_resources then
    invalid_arg "Twill.sim_config: resources must be Schedule.default_resources";
  if not opts.modulo then
    invalid_arg "Twill.sim_config: modulo scheduling cannot be turned off";
  {
    Sim.queue_latency = opts.queue_latency;
    backend = opts.backend;
    fuel = opts.fuel;
    mem_banks = opts.mem_banks;
    check_memdep = opts.check_memdep;
  }

(* Optimised module -> extracted threads, with the communication-pattern
   optimizer ([opts.comm]) applied on the way out: condition-channel
   LICM happens inside extraction itself, and when the "size"/"burst"
   passes need a profile, a seed simulation of the unoptimized pipeline
   collects the per-channel occupancy/stall/burst counters first.
   [?prep] lets callers that extract the same module repeatedly reuse
   one instrumented run and the partition-independent analyses. *)
let extract_comm ?(opts = default_options) ?prep (m : Ir.modul) :
    Dswp.threaded * Comm.report =
  let prep =
    match prep with
    | Some p -> p
    | None -> Dswp.prepare ~profile:(profile_blocks ~opts m) m
  in
  let t =
    Dswp.run ~config:opts.partition ~queue_depth:opts.queue_depth
      ~licm_conds:opts.comm.Comm.licm ~prep m
  in
  let qprofile =
    if Comm.needs_profile opts.comm then
      try
        let stats =
          Sim.simulate_threaded ~config:(sim_config opts) t
            ~schedules:
              (Schedule.of_threaded ~backend:opts.backend
                 ~mem_banks:opts.mem_banks t)
        in
        Some stats.Sim.queue_profiles
      with Sim.Deadlock _ | Sim.Out_of_fuel _ ->
        (* the profile-guided passes degrade gracefully without a seed
           profile; behaviour bugs still surface in the real run *)
        None
    else None
  in
  let report = Comm.apply ~config:opts.comm ?profile:qprofile t in
  (t, report)

let extract ?opts ?prep (m : Ir.modul) : Dswp.threaded =
  fst (extract_comm ?opts ?prep m)

(* --- the three evaluation scenarios -------------------------------------- *)

type scenario = {
  cycles : int;
  ret : int32;
  prints : int32 list;
  area : Area.t; (* FPGA logic of the deployed design (excl. Microblaze) *)
  power_mw : float;
  executed : int;
}

type twill_result = {
  scenario : scenario;
  threaded : Dswp.threaded;
  hw_threads_area : Area.t; (* LegUp-translated thread logic only *)
  runtime_area : Area.t; (* queues, semaphores, buses, interfaces *)
  n_hw_threads : int;
  nqueues : int;
  nsems : int;
  stats : Sim.stats;
  schedules : Schedule.table;
}

let all_funcs (m : Ir.modul) =
  List.map (fun (f : Ir.func) -> f.Ir.name) m.Ir.funcs

let schedules_for (opts : options) (m : Ir.modul) : (string * Schedule.t) list =
  Schedule.bindings
    (Schedule.table ~backend:opts.backend ~mem_banks:opts.mem_banks m
       (all_funcs m))

(* Pure software: the whole program on the Microblaze (no hardware
   function in its table). *)
let run_pure_sw ?(opts = default_options) (m : Ir.modul) : scenario =
  let schedules =
    Schedule.table ~backend:opts.backend ~mem_banks:opts.mem_banks m []
  in
  let stats =
    Sim.simulate ~config:(sim_config opts) ~schedules m
      ~threads:[| { Sim.tname = "main"; trole = Sim.Sw; local_memory = false } |]
      ~queues:[||] ~nsems:0 ()
  in
  {
    cycles = stats.Sim.cycles;
    ret = stats.Sim.ret;
    prints = stats.Sim.prints;
    area = Area.zero; (* no fabric logic; the soft core itself reported separately *)
    power_mw =
      Power.power ~with_microblaze:true ~mb_activity:1.0 ~area:Area.microblaze
        ~logic_activity:0.0 ();
    executed = stats.Sim.executed;
  }

(* Pure hardware: the whole program through the LegUp-substitute flow.
   This baseline is the monolithic LegUp translation by definition, so it
   stays on the FSM backend whatever [opts.backend] selects for the
   hybrid's partitions, and it keeps its data in local memory, so the
   shared-memory bank count does not apply: it is simulated and priced
   on the same unbanked schedules of every function. *)
let run_pure_hw ?(opts = default_options) (m : Ir.modul) : scenario =
  let opts = { opts with backend = Schedule.Fsm; mem_banks = 1 } in
  let config = sim_config opts in
  let schedules =
    Schedule.table ~backend:Schedule.Fsm ~mem_banks:1 m (all_funcs m)
  in
  let stats =
    Sim.simulate ~config ~schedules m
      ~threads:[| { Sim.tname = "main"; trole = Sim.Hw; local_memory = true } |]
      ~queues:[||] ~nsems:0 ()
  in
  let area = Area.of_legup_module m schedules in
  let busy = match stats.Sim.thread_busy with [| (_, b) |] -> b | _ -> 0 in
  let activity =
    if stats.Sim.cycles = 0 then 0.0
    else float_of_int busy /. float_of_int stats.Sim.cycles
  in
  {
    cycles = stats.Sim.cycles;
    ret = stats.Sim.ret;
    prints = stats.Sim.prints;
    area;
    power_mw =
      Power.power ~with_microblaze:false ~mb_activity:0.0 ~area
        ~logic_activity:activity ();
    executed = stats.Sim.executed;
  }

let reachable_funcs = Schedule.reachable

(* Simulation + area/power accounting for an already-extracted pipeline. *)
let run_twill_threaded ?(opts = default_options) (t : Dswp.threaded) :
    twill_result =
  let config = sim_config opts in
  (* the design: the hardware stages and every callee reachable from
     them, timed by rtsim and priced by the area model from one table
     (banked designs also pay the extra ports / bank-select muxes) *)
  let schedules =
    Schedule.of_threaded ~backend:opts.backend ~mem_banks:opts.mem_banks t
  in
  let stats = Sim.simulate_threaded ~config ~schedules t in
  let n_hw_threads = List.length (Dswp.hw_stages t) in
  let hw_threads_area = Area.of_threads t.Dswp.modul schedules in
  let runtime_area =
    Area.of_runtime
      ~queues:
        (Array.to_list t.Dswp.queues
        (* merged channels share the survivor's FIFO — no fabric of
           their own (the merge pass's area win) *)
        |> List.filter (fun (q : Threadgen.queue_info) ->
               q.Threadgen.merged_into = None)
        |> List.map (fun (q : Threadgen.queue_info) ->
               (q.Threadgen.width_bits, q.Threadgen.depth)))
      ~nsems:t.Dswp.nsems ~n_hw_threads
  in
  let area = Area.add hw_threads_area runtime_area in
  (* activities *)
  let makespan = max 1 stats.Sim.cycles in
  let mb_activity =
    match stats.Sim.thread_busy with
    | [||] -> 0.0
    | arr -> float_of_int (snd arr.(t.Dswp.master)) /. float_of_int makespan
  in
  let hw_busy =
    Array.to_list stats.Sim.thread_busy
    |> List.filteri (fun s _ -> s <> t.Dswp.master)
    |> List.map snd
  in
  let logic_activity =
    match hw_busy with
    | [] -> 0.0
    | l ->
        List.fold_left ( + ) 0 l
        |> fun total ->
        float_of_int total /. float_of_int (makespan * List.length l)
  in
  {
    scenario =
      {
        cycles = stats.Sim.cycles;
        ret = stats.Sim.ret;
        prints = stats.Sim.prints;
        area;
        power_mw =
          Power.power ~with_microblaze:true ~mb_activity ~area
            ~logic_activity ();
        executed = stats.Sim.executed;
      };
    threaded = t;
    hw_threads_area;
    runtime_area;
    n_hw_threads;
    nqueues = Array.length t.Dswp.queues;
    nsems = t.Dswp.nsems;
    stats;
    schedules;
  }

(* The Twill hybrid flow. *)
let run_twill ?(opts = default_options) ?prep (m : Ir.modul) : twill_result =
  run_twill_threaded ~opts (extract ~opts ?prep m)

(* --- communication-pattern report (twillc comm-report, twilld "comm") ----- *)

type comm_summary = {
  comm_rep : Comm.report;  (* what each enabled pass did *)
  comm_profile : Sim.queue_profile array;
      (* seed profile of the *unoptimized* extraction, indexed by qid —
         the evidence the passes acted on *)
  comm_queues : Threadgen.queue_info array;  (* post-optimization channels *)
  comm_base_cycles : int;  (* unoptimized pipeline *)
  comm_opt_cycles : int;  (* with [opts.comm] applied *)
}

(* Extracts [m] twice — once with every comm pass off (the baseline whose
   profile and cycle count anchor the report) and once under [opts.comm]
   — and simulates both.  One instrumented profiling run serves both
   extractions. *)
let comm_summarize ?(opts = default_options) (m : Ir.modul) : comm_summary =
  let prep = Dswp.prepare ~profile:(profile_blocks ~opts m) m in
  let base_opts = { opts with comm = Comm.none } in
  let tb = extract ~opts:base_opts ~prep m in
  let base = run_twill_threaded ~opts:base_opts tb in
  let t, rep = extract_comm ~opts ~prep m in
  let r = run_twill_threaded ~opts t in
  {
    comm_rep = rep;
    comm_profile = base.stats.Sim.queue_profiles;
    comm_queues = t.Dswp.queues;
    comm_base_cycles = base.scenario.cycles;
    comm_opt_cycles = r.scenario.cycles;
  }

(* RTL co-simulation of an extracted design against the rtsim reference:
   its one table is emitted as RTL and timed by rtsim. *)
let cosim_table ?(opts = default_options) ?engine ?vcd ?trace
    (t : Dswp.threaded) : Schedule.table * Cosim.report =
  let schedules =
    Schedule.of_threaded ~backend:opts.backend ~mem_banks:opts.mem_banks t
  in
  let design = Vparse.parse (Vruntime.emit schedules t) in
  ( schedules,
    Cosim.run ~config:(sim_config opts) ?engine ?vcd ?trace ~schedules ~design t
  )

let cosim ?opts ?engine ?vcd t = snd (cosim_table ?opts ?engine ?vcd t)

(* Three-way differential co-simulation: the rtsim reference against
   BOTH RTL lowerings of the same extraction.  Each backend's cosim
   checks its RTL against the rtsim replay of its own schedule flavour
   (return value + print trace); across the two RTL runs the per-stage
   call-port issue streams must additionally be identical — the two
   schedules time operations differently, but the order chains
   serialize every memory and queue operation, so both lowerings of
   one partition drive the same request sequence at the HWInterface. *)
type backends_report = {
  bk_fsm : Cosim.report;
  bk_dataflow : Cosim.report;
  bk_ops_match : bool;  (* per-stage call-port streams identical *)
  bk_agree : bool;  (* all three observers agree *)
}

let cosim_backends ?(opts = default_options) (t : Dswp.threaded) :
    backends_report =
  (* one table per backend: emitted, timed and bank-routed *)
  let run backend = cosim_table ~opts:{ opts with backend } ~trace:true t in
  let fsm, bk_fsm = run Schedule.Fsm in
  let _, bk_dataflow = run Schedule.Dataflow in
  let bk_ops_match =
    match Schedule.plan fsm with
    | None -> bk_fsm.Cosim.rtl_ops = bk_dataflow.Cosim.rtl_ops
    | Some plan ->
        (* Under banking the two schedules may legally interleave
           requests to DIFFERENT banks differently — each bank port is an
           independent ordering domain.  What must still agree per stage
           is every per-bank memory stream plus the non-memory (queue/
           semaphore/print) stream.  The plan depends only on the module
           and the bank count, so the FSM table's serves both. *)
        let project ops =
          let streams = Array.make (opts.mem_banks + 1) [] in
          List.iter
            (fun ((code, _, _, addr) as op) ->
              let k =
                if Twill_vgen.Vemit.(code = fc_load || code = fc_store) then
                  Twill_ir.Memdep.bank_of_addr plan (Int32.of_int addr)
                else opts.mem_banks
              in
              streams.(k) <- op :: streams.(k))
            ops;
          Array.map List.rev streams
        in
        Array.map project bk_fsm.Cosim.rtl_ops
        = Array.map project bk_dataflow.Cosim.rtl_ops
  in
  let bk_agree =
    bk_fsm.Cosim.agree && bk_dataflow.Cosim.agree
    && bk_fsm.Cosim.rtl_ret = bk_dataflow.Cosim.rtl_ret
    && bk_fsm.Cosim.rtl_prints = bk_dataflow.Cosim.rtl_prints
    && bk_ops_match
  in
  { bk_fsm; bk_dataflow; bk_ops_match; bk_agree }

(* --- full report (one benchmark, all three scenarios) --------------------- *)

type report = {
  name : string;
  sw : scenario;
  hw : scenario;
  twill : twill_result;
  speedup_vs_sw : float; (* Twill vs pure software *)
  speedup_vs_hw : float; (* Twill vs pure hardware *)
  hw_speedup_vs_sw : float; (* pure hardware vs pure software *)
}

exception Self_check_failed of string

(* Like the thesis's iterated partitioning (§5.2: the DSWP algorithm is
   re-run with adjusted targets), the driver tries several pipeline widths
   and keeps the best-performing extraction. *)
let run_twill_auto ?(opts = default_options) ?(widths = [ 2; 3; 4; 5 ])
    (m : Ir.modul) : twill_result =
  (* one instrumented profiling run and one PDG/weights analysis serve
     every width; widths whose partitions coincide (common on serial
     kernels, where the partitioner cannot fill the requested stages)
     share one simulation.  The distinct extractions are independent over
     a module DSWP no longer mutates, so they evaluate on parallel
     domains when slots are free. *)
  let prep = Dswp.prepare ~profile:(profile_blocks ~opts m) m in
  let opts_of k =
    { opts with partition = { opts.partition with Partition.nstages = k } }
  in
  let keyed =
    List.map
      (fun k ->
        let t = extract ~opts:(opts_of k) ~prep m in
        let key =
          Digest.string
            (Marshal.to_string
               ( t.Dswp.partition.Partition.stage_of_node,
                 t.Dswp.partition.Partition.roles )
               [])
        in
        (key, k, t))
      widths
  in
  let distinct =
    List.fold_left
      (fun acc (key, k, t) ->
        if List.mem_assoc key acc then acc else (key, (k, t)) :: acc)
      [] keyed
    |> List.rev
  in
  let simmed =
    Par.map
      (fun (key, (k, t)) -> (key, run_twill_threaded ~opts:(opts_of k) t))
      distinct
  in
  let candidates = List.map (fun (key, _, _) -> List.assoc key simmed) keyed in
  match candidates with
  | [] -> run_twill ~opts ~prep m
  | first :: rest ->
      (* prefer deeper pipelines when performance is within 2% — ties go
         to the configuration that actually exploits TLP *)
      List.fold_left
        (fun best c ->
          let cb = float_of_int best.scenario.cycles in
          if float_of_int c.scenario.cycles < 0.98 *. cb then c
          else if
            c.scenario.cycles <= best.scenario.cycles
            && c.n_hw_threads > best.n_hw_threads
          then c
          else best)
        first rest

(* Compiles and evaluates [src] under all three flows, checking that all
   of them observe identical behaviour (return value and print trace). *)
let evaluate ?(opts = default_options) ?(auto_stages = true) ~(name : string)
    (src : string) : report =
  let m = compile ~opts src in
  (* the three flows only read [m]; the hybrid (which itself fans out over
     pipeline widths) overlaps with both baselines when domains are free *)
  let (sw, hw), tw =
    Par.pair
      (fun () ->
        Par.pair (fun () -> run_pure_sw ~opts m) (fun () -> run_pure_hw ~opts m))
      (fun () ->
        if auto_stages then run_twill_auto ~opts m else run_twill ~opts m)
  in
  (* The three flows run one interpreter under three timing hooks
     (Microblaze costs, a hardware thread's block costs, the threaded
     hybrid), so this agreement tests the simulator's plumbing — handlers,
     scheduling, queues — not independent semantics.  The independent
     checks are the typed-AST reference ([Minic.run_reference]), RTL
     co-simulation and the emitted C under gcc. *)
  if
    sw.ret <> hw.ret || sw.ret <> tw.scenario.ret || sw.prints <> hw.prints
    || sw.prints <> tw.scenario.prints
  then
    raise
      (Self_check_failed
         (Printf.sprintf "%s: scenarios disagree (sw=%ld hw=%ld twill=%ld)"
            name sw.ret hw.ret tw.scenario.ret));
  let fdiv a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  {
    name;
    sw;
    hw;
    twill = tw;
    speedup_vs_sw = fdiv sw.cycles tw.scenario.cycles;
    speedup_vs_hw = fdiv hw.cycles tw.scenario.cycles;
    hw_speedup_vs_sw = fdiv sw.cycles hw.cycles;
  }
