(** Twill — the end-to-end hybrid-compilation driver.

    This is the library façade a downstream user programs against: compile
    mini-C to optimised IR, extract DSWP pipeline threads, and evaluate
    under the three flows of the thesis's Chapter 6 — pure software on the
    Microblaze model, pure hardware through the LegUp-substitute flow, and
    the Twill hybrid.  See {!module:Twill_chstone.Chstone} for the bundled
    benchmarks and [bench/main.ml] for the experiment harness. *)

(** Re-exported building blocks, so users need only this module. *)
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

(** Deterministic domain-parallel evaluation helpers (shared slot budget). *)
module Par = Par

(** The option table: each knob's spellings, printer, parser, range and
    level, and the cache keys derived from them. *)
module Options = Options

(** Compilation and evaluation options; [default_options] matches the
    thesis's experimental setup (8-deep 32-bit queues, 2-cycle queue
    latency, one Microblaze, 100 MHz everywhere). *)
type options = Options.t = {
  partition : Partition.config;  (** pipeline width and split target *)
  queue_depth : int;  (** slots per queue (thesis: 8) *)
  queue_latency : int;  (** give->visible cycles (thesis: 2) *)
  inline_aggressive : bool;  (** inline every call before DSWP *)
  inline_threshold : int;  (** size bound for default inlining *)
  unroll : bool;  (** LegUp-style full unrolling of small counted loops *)
  resources : Schedule.resources;  (** must stay the default *)
  modulo : bool;  (** must stay [true] *)
  fuel : int;  (** simulation instruction budget *)
  backend : Schedule.backend;
      (** RTL lowering for the hardware partitions: the LegUp-style
          monolithic FSM or the elastic dataflow template.  Drives the
          schedule flavour replayed by rtsim, the area model and the
          Verilog emitted for co-simulation ({!Schedule.Fsm} in
          [default_options]) *)
  pipeline_break : string option;
      (** fault injection: deliberately miscompile after the named
          pipeline stage (the fuzzer's planted-bug hook; see
          {!Pipeline.options}) *)
  comm : Comm.config;
      (** communication-pattern optimizer passes applied at extraction
          ([twillc --comm-opt]); {!Comm.none} in [default_options] *)
  mem_banks : int;
      (** shared-memory banks ({!Twill_ir.Memdep.plan}, [twillc
          --mem-banks]): hardware threads schedule with per-bank
          ordering chains, rtsim arbitrates one bus per bank, and both
          RTL backends emit banked memories.  A Sim-level knob of
          {!Options}: the banking plan is a pure function of the
          module.  1 (the default) is the single-port seed behaviour *)
  check_memdep : bool;
      (** runtime alias checker: trap if two accesses the dependence
          oracle declared independent touch the same address within a
          2-cycle window (debug; default off) *)
}

val default_options : options

(** [compile src] parses, type-checks and optimises a mini-C program
    through the standard pass pipeline (thesis §5.1). *)
val compile : ?opts:options -> string -> Ir.modul

(** [profile_blocks m] runs one instrumented interpretation and returns
    per-block execution counts of [main] — the profile guiding the
    partitioner's weights. *)
val profile_blocks : ?opts:options -> Ir.modul -> int array

(** [extract m] runs the profile-guided DSWP thread extraction on an
    optimised module (thesis §5.2-5.3).  Pass [?prep] (from
    {!Dswp.prepare} on a {!profile_blocks} profile) to reuse one
    instrumented run and the partition-independent analyses across
    repeated extractions of the same module. *)
val extract : ?opts:options -> ?prep:Dswp.prep -> Ir.modul -> Dswp.threaded

(** Like {!extract}, also returning the communication optimizer's
    report: which of the [opts.comm] passes ran and what each did
    (channels hoisted/merged, queues re-sized, burst flags).  When the
    profile-guided passes are enabled this runs one seed simulation of
    the unoptimized pipeline to collect {!Sim.queue_profile}s first. *)
val extract_comm :
  ?opts:options -> ?prep:Dswp.prep -> Ir.modul -> Dswp.threaded * Comm.report

(** Simulator configuration corresponding to [opts].
    @raise Invalid_argument if [opts.resources] or [opts.modulo] is not
    the default. *)
val sim_config : options -> Sim.config

(** One evaluated execution flow. *)
type scenario = {
  cycles : int;  (** simulated makespan *)
  ret : int32;  (** program result *)
  prints : int32 list;  (** observable output trace *)
  area : Area.t;  (** FPGA logic deployed (excluding the soft core) *)
  power_mw : float;
  executed : int;  (** instructions executed across all threads *)
}

(** The Twill hybrid flow's result, with extraction details. *)
type twill_result = {
  scenario : scenario;
  threaded : Dswp.threaded;
  hw_threads_area : Area.t;  (** LegUp-translated thread logic only *)
  runtime_area : Area.t;  (** queues, semaphores, buses, interfaces *)
  n_hw_threads : int;
  nqueues : int;
  nsems : int;
  stats : Sim.stats;
  schedules : Schedule.table;
      (** what rtsim replayed and the area model priced *)
}

(** Whole program on the Microblaze model (thesis baseline 1). *)
val run_pure_sw : ?opts:options -> Ir.modul -> scenario

(** Whole program through the LegUp-substitute hardware flow with local
    BRAM memory (thesis baseline 2). *)
val run_pure_hw : ?opts:options -> Ir.modul -> scenario

(** The Twill hybrid at the configured pipeline width.  [?prep] as in
    {!extract}. *)
val run_twill : ?opts:options -> ?prep:Dswp.prep -> Ir.modul -> twill_result

(** Simulation plus area/power accounting for an already-extracted
    pipeline (the back half of {!run_twill}); lets sweeps reuse one
    extraction across simulator configurations. *)
val run_twill_threaded : ?opts:options -> Dswp.threaded -> twill_result

(** Everything [twillc comm-report] (and the [twilld] "comm" request)
    shows: the unoptimized extraction's per-channel profile, the pass
    report under [opts.comm], the post-optimization channel table and
    the base-vs-optimized cycle counts. *)
type comm_summary = {
  comm_rep : Comm.report;
  comm_profile : Sim.queue_profile array;
      (** seed profile of the unoptimized extraction, indexed by qid *)
  comm_queues : Threadgen.queue_info array;  (** post-optimization *)
  comm_base_cycles : int;
  comm_opt_cycles : int;
}

val comm_summarize : ?opts:options -> Ir.modul -> comm_summary

(** Co-simulates the emitted RTL of an extracted design (hardware threads
    and runtime primitives elaborated under {!Vsim}) against the
    cycle-accurate [rtsim] reference, checking that both observe the same
    return value and print trace.  Both sides read the design's one
    {!Schedule.table}.  [engine] forces the Vsim scheduling
    engine (default: levelized with automatic fixpoint fallback); tests
    pass [Fixpoint] to run the oracle.  [vcd]
    dumps one waveform per RTL instance under that path prefix.
    @raise Twill_vsim.Cosim.Cosim_error on a stuck co-simulation. *)
val cosim :
  ?opts:options -> ?engine:Vsim.engine -> ?vcd:string -> Dswp.threaded ->
  Cosim.report

(** Three-way differential co-simulation verdict: the rtsim reference
    against both RTL lowerings (monolithic FSM and elastic dataflow)
    of one extraction. *)
type backends_report = {
  bk_fsm : Cosim.report;  (** FSM RTL vs its rtsim replay *)
  bk_dataflow : Cosim.report;  (** dataflow RTL vs its rtsim replay *)
  bk_ops_match : bool;
      (** per-stage HWInterface call-port issue streams identical
          between the two RTL backends — the per-cycle observation
          points of the differential oracle (the order chains
          serialize memory/queue traffic, so any valid schedule of one
          partition must drive the same request sequence).  With
          [opts.mem_banks > 1] each bank port is an independent
          ordering domain, so the comparison is per-projection: every
          per-bank memory stream and the non-memory stream must match *)
  bk_agree : bool;
      (** everything agrees: each RTL run matches its rtsim reference,
          the two RTL runs observe the same return value and prints,
          and the call-port streams match *)
}

(** Runs rtsim + FSM-RTL + dataflow-RTL over one extracted design, with
    one {!Schedule.table} per backend, and cross-checks all three (final state, print traces, and per-stage
    call-port issue streams between the RTL backends).
    @raise Twill_vsim.Cosim.Cosim_error on a stuck co-simulation. *)
val cosim_backends :
  ?opts:options -> Dswp.threaded -> backends_report

(** Tries several pipeline widths and keeps the best (the analogue of the
    thesis's iterated partitioning, §5.2); ties go to deeper pipelines. *)
val run_twill_auto : ?opts:options -> ?widths:int list -> Ir.modul -> twill_result

(** Full report over the three flows. *)
type report = {
  name : string;
  sw : scenario;
  hw : scenario;
  twill : twill_result;
  speedup_vs_sw : float;
  speedup_vs_hw : float;
  hw_speedup_vs_sw : float;
}

exception Self_check_failed of string

(** [evaluate ~name src] compiles [src] and runs all three flows, raising
    {!Self_check_failed} if they observe different behaviour.
    [auto_stages] (default true) enables width auto-tuning. *)
val evaluate : ?opts:options -> ?auto_stages:bool -> name:string -> string -> report

(**/**)

val pipeline_options : options -> Pipeline.options
val reachable_funcs : Ir.modul -> string list -> string list
val schedules_for : options -> Ir.modul -> (string * Schedule.t) list
