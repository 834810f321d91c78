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

val emit_banked_memory : Twill_ir.Memdep.plan -> string
(** [twill_banked_mem] — generated per design from a banking plan: one
    independent single-port RAM bank per plan bank, each speaking the
    §4.4 memory-port protocol (request/write/addr/wdata in,
    rdata/rvalid out) — byte-compatible per bank with the unbanked
    memory port of {!hw_interface_module}.  The per-port decode chain
    maps the global word address to the bank-local address using the
    plan's region table. *)

val emit_system : ?plan:Twill_ir.Memdep.plan -> Dswp.threaded -> string
(** The top-level [twill_system] module: queue/semaphore/thread-interface
    instances for one extracted design.  With [?plan] (more than one
    bank), also one memory-bus arbiter per bank and the banked memory. *)

val emit_design :
  ?backend:Twill_hls.Schedule.backend ->
  ?mem_banks:int ->
  Dswp.threaded ->
  string
(** Everything needed to synthesise the design: runtime primitives, one
    module per hardware thread — the monolithic FSM of
    {!Vemit.emit_hw_thread} or, under [~backend:Dataflow], the elastic
    stage pipeline of {!Velastic.emit_hw_thread} — and the system top.
    Callees follow the selected backend recursively.  Every thread
    module lowers its schedule from {!Twill_hls.Schedule.table} at
    [backend] and [mem_banks] — the schedules rtsim times for the same
    design.  [mem_banks > 1] additionally computes the banking plan, gives
    the threads per-bank ordering chains and emits the banked memory
    subsystem ({!emit_banked_memory}); the call-port protocol is the same
    at every bank count. *)
