(** Verilog generators for the Twill hardware runtime (thesis Chapter 4,
    Figure 4.1).  The primitive modules are parameterised templates; the
    system generator instantiates one queue/semaphore/thread interface per
    element of an extracted design, wired to the two buses. *)

module Dswp = Twill_dswp.Dswp

val queue_module : string
(** [twill_queue #(WIDTH, DEPTH)] — the FIFO of §4.3: a DEPTH+1 circular
    buffer whose give-ack is withheld when the extra slot fills, stalling
    the producer exactly as the thesis describes. *)

val semaphore_module : string
(** [twill_semaphore #(MAX_COUNT, INITIAL)] — counting semaphore (§4.2)
    with the minimum 2-cycle lower. *)

val arbiter_module : string
(** [twill_bus_arbiter #(N)] — §4.1's modified priority decoder: the
    processor first, then messages to the processor, then the
    longest-waiting requester. *)

val hw_interface_module : string
(** [twill_hw_interface] — §4.4: adapts a thread's one-call-per-cycle
    port onto the module and memory buses without adding request
    latency. *)

val scheduler_module : string
(** [twill_scheduler #(NTHREADS, PERIOD)] — the hardware round-robin
    scheduler that interrupts the processor with the next software-thread
    id (§4.4). *)

val emit_system : ?plan:Twill_ir.Memdep.plan -> Dswp.threaded -> string
(** The top-level [twill_system] module: queue/semaphore/thread-interface
    instances for one extracted design.  With [?plan] (more than one
    bank), also one memory-bus arbiter per bank and the banked memory. *)

val emit : Twill_hls.Schedule.table -> Dswp.threaded -> string
(** Everything needed to synthesise the design: runtime primitives, one
    module per hardware thread — the monolithic FSM of
    {!Vemit.emit_hw_thread} or, when the table's backend is [Dataflow],
    the elastic stage pipeline of {!Velastic.emit_hw_thread} — and the
    system top.  Callees follow the backend recursively.  Every thread
    module lowers its schedule from the table — the schedules rtsim
    times for the same design.  A banked table's plan gives the threads
    per-bank ordering chains and the design its banked memory: one
    single-port RAM bank per plan bank, each speaking the unbanked §4.4
    memory-port protocol; the call-port protocol is the same at every
    bank count. *)

val emit_design :
  ?backend:Twill_hls.Schedule.backend ->
  ?mem_banks:int ->
  Dswp.threaded ->
  string
(** {!emit} of {!Twill_hls.Schedule.of_threaded} (default: [Fsm], one
    bank); kept only for [benchmark/layers.ml]. *)
