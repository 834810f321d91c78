(** Cycle-accurate simulator of the Twill runtime architecture
    (thesis Chapter 4, Figure 4.1).

    Pipeline threads run as cooperative fibers with local clocks
    (conservative Kahn-network simulation — all cross-thread interaction
    flows through the queues, semaphores and ordering tokens inserted by
    the DSWP stage, so results are deterministic).  The timing model
    implements the latencies of Chapter 4: single-message-per-cycle buses
    with a priority arbiter, 1/2-cycle queue operations (plus the
    configurable give-to-visible latency, default 2, covering the
    write-update coherency window), 5-cycle processor stream operations,
    per-instruction Microblaze costs for software threads, and
    schedule-derived FSM state counts (with modulo-scheduling initiation
    intervals) for hardware threads.

    A software and a hardware thread differ only in how a block is timed
    and whether loads and stores go over the memory bus — the
    interpreter's [?block_cost] and [?mem_hook].  Two engines share the
    timing model: [Interpreted] (the original spin-scheduler oracle —
    handlers dispatching on channel ids over get/set clock closures,
    schedule lookups per block exit, blocked fibers re-run every round)
    and [Compiled] (the default — one handler builder and one fiber body
    for both roles, runtime-primitive handlers specialised into
    pre-bound per-channel closures at elaboration, flat per-function
    schedule arrays, ring-buffer queue storage, and a scheduler that
    parks blocked fibers on per-channel wait lists).
    Both engines produce byte-identical {!stats}; {!diff_engines} and
    the rtsim:engines suite enforce it. *)

open Twill_ir.Ir
module Threadgen = Twill_dswp.Threadgen

exception Deadlock of string
(** Raised when no thread can make progress (cannot happen for designs
    produced by {!Twill_dswp.Dswp.run}; property-tested).  The message
    names every unfinished thread and the queue/semaphore it is blocked
    on. *)

exception Out_of_fuel of string
(** A thread exhausted [config.fuel]; the message names the thread. *)

exception Alias_violation of string
(** The runtime alias checker ([config.check_memdep]) saw an access
    break a static bank claim, or two accesses the dependence oracle
    declared independent touch one address; the message names both. *)

type role = Sw  (** software on the Microblaze *) | Hw  (** FPGA thread *)

type engine =
  | Interpreted  (** spin scheduler + id-dispatching handlers (the oracle) *)
  | Compiled  (** pre-bound closures + parked-fiber wait lists (default) *)

val engine_name : engine -> string

type thread_spec = {
  tname : string;  (** entry function *)
  trole : role;
  local_memory : bool;
      (** pure-LegUp flow: data in BRAMs, no shared memory bus *)
}

type config = {
  queue_latency : int;
  backend : Twill_hls.Schedule.backend;
      (** which RTL lowering's block timing (nstates/II) the hardware
          threads replay: the FSM list schedule or the elastic dataflow
          ASAP schedule *)
  fuel : int;  (** per-thread instruction budget *)
  mem_banks : int;
      (** shared-memory banks ({!Twill_ir.Memdep.plan}): each bank gets
          its own bus arbiter, and the default schedule table carries
          per-bank ordering chains.  1 (the default) keeps the single
          shared memory port and is bit-identical to the unbanked
          simulator. *)
  check_memdep : bool;
      (** debug: observe the evaluated address of every shared-memory
          access and trap ({!Alias_violation}) if two accesses the
          dependence oracle declared independent touch the same address
          within a 2-cycle window, or a static bank claim is violated.
          Pure observation — never changes timing. *)
}

val default_config : config

type queue_profile = {
  qp_produces : int;
  qp_consumes : int;
  qp_stall_full : int;  (** producer cycles waiting for a free slot *)
  qp_stall_empty : int;  (** consumer cycles waiting for visibility *)
  qp_bus_waits : int;  (** module-bus arbitration cycles of this queue's ops *)
  qp_peak : int;  (** high-water occupancy *)
  qp_occ_hist : int array;
      (** index = occupancy [0..depth], sampled after every op *)
  qp_prod_bursts : int array;
      (** distribution of back-to-back produce run lengths; index =
          length - 1, last bucket = >= 8 *)
  qp_cons_bursts : int array;
}
(** Per-channel communication profile (occupancy, stalls, burst shapes)
    — the input of the lib/comm optimizer.  Updated with identical
    arithmetic by both engines; {!diff_engines} compares it field by
    field like every other stats component. *)

type stats = {
  ret : int32;  (** the master thread's return value *)
  prints : int32 list;
      (** deterministic merge: the master thread's trace first, then any
          other printing thread in thread-index order *)
  cycles : int;  (** makespan over all threads *)
  thread_finish : (string * int) array;
  thread_busy : (string * int) array;  (** non-waiting cycles per thread *)
  executed : int;
  queue_peaks : int array;  (** high-water occupancy per queue *)
  queue_profiles : queue_profile array;  (** per-channel comm profile *)
  module_bus_waits : int;  (** arbitration wait cycles *)
  memory_bus_waits : int;  (** summed over all banks *)
  mem_bank_grants : int array;
      (** per-bank granted slots (bus occupancy); length = [mem_banks] *)
  mem_bank_waits : int array;
      (** per-bank arbitration wait cycles; length = [mem_banks] *)
}

val simulate :
  ?config:config ->
  ?master:int ->
  ?engine:engine ->
  schedules:Twill_hls.Schedule.table ->
  modul ->
  threads:thread_spec array ->
  queues:Threadgen.queue_info array ->
  nsems:int ->
  unit ->
  stats
(** Runs every thread to completion over one shared memory image and
    returns the timing/behaviour statistics.  [master] selects the thread
    whose return value is the program result (default 0).  [engine]
    defaults to [Compiled]; [Interpreted] is the oracle.  Hardware
    threads replay the design's [schedules]; its plan routes the memory
    buses, one per bank.
    @raise Invalid_argument when [config.backend] or [config.mem_banks]
    differs from the table's.
    @raise Deadlock when no thread can make progress.
    @raise Out_of_fuel when a thread exceeds [config.fuel]. *)

exception Engine_mismatch of string
(** The two engines disagreed on some stats field — a simulator bug. *)

val diff_engines :
  ?config:config ->
  ?master:int ->
  schedules:Twill_hls.Schedule.table ->
  modul ->
  threads:thread_spec array ->
  queues:Threadgen.queue_info array ->
  nsems:int ->
  unit ->
  stats
(** Runs both engines on the one table and checks the full {!stats}
    records for equality; returns the compiled engine's stats.
    @raise Engine_mismatch on any difference. *)

(** {1 Simulating a DSWP extraction} *)

val thread_specs : Twill_dswp.Dswp.threaded -> thread_spec array
(** One shared-memory thread per pipeline stage, with the stage's
    partition role. *)

val simulate_threaded :
  ?config:config ->
  ?engine:engine ->
  schedules:Twill_hls.Schedule.table ->
  Twill_dswp.Dswp.threaded ->
  stats
(** {!simulate} of an extraction: its module, stage threads, queues and
    semaphores, with the master stage's return value as the result. *)
