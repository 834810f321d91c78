(** Co-simulation of the emitted RTL against the [rtsim] reference.

    Two layers:

    {b Per-primitive differential testing} — the RTL [twill_queue],
    [twill_semaphore] and [twill_bus_arbiter] are driven with seeded
    random operation sequences and checked cycle-by-cycle against
    reference models that encode the Chapter-4 contracts: FIFO order and
    the size+1 buffer with the give-ack withheld on the extra slot
    (§4.3), the counting semaphore with its registered (minimum
    two-cycle) lower acknowledgement (§4.2), and the
    processor-first/to-processor-next/index-order arbitration policy
    (§4.1).

    {b Whole-design co-simulation} — every hardware stage of an
    extracted design runs as an elaborated {!Vsim} instance of its
    emitted [twill_thread_*] module (sub-FSM callees included), next to
    RTL instances of every queue and semaphore.  The harness plays the
    part of the rest of Figure 4.1: the module bus (one operation per
    cycle, processor first, then lowest stage), the memory bus (one
    load/store per cycle against the shared memory image), the
    HWInterface reply path, and the processor itself — software stages
    execute as interpreter fibers whose runtime-primitive operations are
    routed through the same RTL queues and semaphores.  The run must
    reproduce the prints and return value of the cycle-accurate [rtsim]
    hybrid simulation. *)

exception Cosim_error of string
(** Divergence between RTL and model, or a stuck co-simulation. *)

(** {1 Per-primitive differential tests} *)

val diff_queue : ?width:int -> seed:int -> depth:int -> ops:int -> unit -> int
(** Random produce/consume traffic with the §4.3 handshake against one
    RTL queue.  Checks FIFO data order, the exact give-ack/take-ack
    pattern (ack withheld on the extra-slot push, released by the next
    take) and the occupancy counter every cycle.  Returns the number of
    completed operations. @raise Cosim_error on divergence. *)

val diff_semaphore :
  seed:int -> max_count:int -> initial:int -> ops:int -> unit -> int
(** Random give/take traffic (simultaneous allowed) against one RTL
    semaphore; checks the counter and the registered take-ack — the
    acknowledgement is never visible in the cycle that requests it, so a
    lower occupies at least two cycles (§4.2).  Returns completed ops. *)

val diff_arbiter : seed:int -> n:int -> cycles:int -> unit -> int
(** Random request/to-processor patterns against the RTL arbiter;
    checks processor-first priority, the to-processor class, and
    one-hot index-order grants each cycle.  Returns cycles checked. *)

(** {1 Engine differential} *)

val diff_engines :
  ?overrides:(string * int) list ->
  ?cycles:int ->
  seed:int ->
  Vparse.design ->
  string ->
  int
(** [diff_engines ~seed design top] elaborates [top] twice — with the
    levelized engine and with the fixpoint semantic oracle — drives both
    with the same seeded random values on every top-level input each
    cycle, and asserts identical net and memory state after every step
    plus byte-identical VCD dumps at the end.  A runtime [Sim_error]
    under random stimulus must be raised identically by both engines
    (the run then stops early).  Returns the number of cycles compared.
    @raise Cosim_error on any divergence. *)

(** {1 Whole-design co-simulation} *)

type report = {
  rtl_ret : int32;
  rtl_prints : int32 list;
  rtl_cycles : int;  (** harness clock cycles until every thread halted *)
  rtl_engine : string;
      (** scheduling engine the RTL instances ran under: ["levelized"],
          ["fixpoint"] or ["mixed"], with a [" (comb-loop fallback)"]
          suffix when a levelized request had to drop to the fixpoint
          engine *)
  model_ret : int32;
  model_prints : int32 list;
  model_cycles : int;  (** rtsim hybrid makespan *)
  agree : bool;  (** return value and prints both match *)
  rtl_ops : (int * int * int * int) list array;
      (** per-stage call-port issue trace — every
          [(fc_code, fc_target, fc_data, fc_addr)] the hardware stage
          drove, in issue order.  Empty unless [~trace:true] was passed
          (and always empty for software stages).  Two RTL backends of
          the same partition must issue identical streams per stage;
          the three-way differential oracle compares them. *)
}

val run :
  config:Twill_rtsim.Sim.config ->
  ?engine:Vsim.engine ->
  ?vcd:string ->
  ?model:bool ->
  ?trace:bool ->
  schedules:Twill_hls.Schedule.table ->
  design:Vparse.design ->
  Twill_dswp.Dswp.threaded ->
  report
(** Runs the rtsim hybrid simulation (software/hardware roles from the
    partition) and the RTL co-simulation of one design, and compares
    them.  Both read [schedules]: rtsim replays it, and the harness gives
    the RTL one load/store slot per bank, routed by its plan.  [design]
    is the parsed {!Twill_vgen.Vruntime.emit} of it; elaboration only
    reads it, so one parse can serve several runs.  [engine] forces the
    {!Vsim} scheduling engine for every RTL instance (default:
    levelized, with automatic comb-loop fallback); tests pass [Fixpoint]
    to run the oracle.  [vcd], when given, dumps one waveform file per
    RTL instance under that path prefix.
    [model] (default true) controls the rtsim reference run: with
    [~model:false] only the RTL side executes — for callers that
    compare the result against their own reference (the fuzz oracle
    checks every stage against the AST interpreter) — and the report's
    [model_*] fields mirror the RTL run with [agree] vacuously true.
    [trace] (default false) records every hardware stage's call-port
    issue stream in the report's [rtl_ops] — the per-cycle observation
    points of the cross-backend differential oracle.
    @raise Invalid_argument as {!Twill_rtsim.Sim.simulate} does.
    @raise Cosim_error if the co-simulation gets stuck (no progress) or
    runs 2,000,000 harness cycles. *)

val run_threaded :
  config:Twill_rtsim.Sim.config ->
  ?engine:Vsim.engine ->
  ?vcd:string ->
  ?model:bool ->
  ?trace:bool ->
  design:Vparse.design ->
  Twill_dswp.Dswp.threaded ->
  report
(** {!run} on {!Twill_hls.Schedule.of_threaded} at [config.backend] and
    [config.mem_banks]; kept only for [benchmark/layers.ml]. *)
