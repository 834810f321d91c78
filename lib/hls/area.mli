(** FPGA area model (Virtex-5 LUTs / DSP48 blocks / BRAMs).

    Functional units are bound from the schedule's peak per-class
    concurrency; FSM control cost grows superlinearly with machine size
    (wider state encoding, deeper next-state logic, larger sharing muxes),
    which is the structural reason the thesis's monolithic pure-LegUp
    translations are larger than Twill's small per-thread machines.
    Runtime-primitive figures are the exact numbers of thesis §6.2. *)

open Twill_ir.Ir

type t = { luts : int; dsps : int; brams : int }

val zero : t
val add : t -> t -> t
val sum : t list -> t

val of_schedule : ?banks:int -> ?backend:Schedule.backend -> func -> Schedule.t -> t
(** Area of one hardware thread under [backend] (default [Fsm]): the
    monolithic FSM, or the elastic dataflow template with the same
    functional-unit binding and datapath but distributed per-stage and
    per-channel control instead of the FSM's superlinear per-state term.
    [banks] (default 1) adds the extra port interfaces, the bank-select
    decode and the read-data return mux. *)

val of_threads : modul -> Schedule.table -> t
(** Area of a design's hardware threads: {!of_schedule} of every
    function of the table at its backend and bank count. *)

val of_legup_module : modul -> Schedule.table -> t
(** Area of the monolithic pure-LegUp translation of a whole module: one
    design whose control cost scales with the total state count, plus
    BRAMs for every global and static array. *)

val of_runtime :
  queues:(int * int) list -> nsems:int -> n_hw_threads:int -> t
(** Twill runtime-system area: one queue per [(width_bits, depth)] entry,
    semaphores, HWInterfaces, the processor interface, the scheduler and
    the two bus arbiters (§6.2: 8x32 queue = 65 LUTs + 1 DSP, semaphore =
    70 LUTs, HWInterface = 44, ...). *)

val microblaze : t
(** The soft core: 1434 LUTs (the constant Twill -> Twill+MB delta of
    Table 6.2) and 16 BRAMs. *)
