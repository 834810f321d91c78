(* FPGA area model (Virtex-5 LUTs / DSP48s / BRAMs).

   Functional units are bound from the schedule's peak per-class
   concurrency; FSM control costs scale with total state count; the
   runtime-primitive figures come straight from thesis §6.2 (queue = 65
   LUTs + 1 DSP at 8x32, semaphore = 70 LUTs, HWInterface = 44, processor
   interface = 24, scheduler = 98 + 2 DSPs, bus arbiters = 15 each,
   Microblaze = 1434 LUTs + 16 BRAMs). *)

open Twill_ir.Ir
module Vec = Twill_ir.Vec
module Costmodel = Twill_ir.Costmodel

type t = { luts : int; dsps : int; brams : int }

let zero = { luts = 0; dsps = 0; brams = 0 }
let add a b = { luts = a.luts + b.luts; dsps = a.dsps + b.dsps; brams = a.brams + b.brams }
let sum = List.fold_left add zero

let unit_cost : Schedule.res_class -> t = function
  | Schedule.Calu -> { luts = 48; dsps = 0; brams = 0 }
  | Schedule.Cmul -> { luts = 40; dsps = 3; brams = 0 }
  | Schedule.Cdiv -> { luts = 1150; dsps = 0; brams = 0 }
  | Schedule.Cshift -> { luts = 60; dsps = 0; brams = 0 }
  | Schedule.Cmem -> { luts = 12; dsps = 0; brams = 0 }
  | Schedule.Cqueue -> { luts = 6; dsps = 0; brams = 0 }
  | Schedule.Cfree -> zero

(* Per-thread cost of reaching [banks] memory banks: each bank beyond
   the first adds a memory-port interface, and the thread's access path
   gains the bank-select decode plus the 32-bit read-data return mux. *)
let banking_cost ~banks : t =
  if banks <= 1 then zero
  else
    {
      luts =
        ((banks - 1) * (unit_cost Schedule.Cmem).luts)
        + Costmodel.bank_decode_luts
        + (banks * Costmodel.bank_mux_luts);
      dsps = 0;
      brams = 0;
    }

(* Functional units bound from the schedule's peak per-class concurrency. *)
let bound_units (s : Schedule.t) : t =
  sum
    (List.map
       (fun (cls, peak) ->
         let u = unit_cost cls in
         { luts = u.luts * peak; dsps = u.dsps * peak; brams = 0 })
       s.Schedule.peak)

(* Area of one hardware thread (one scheduled function): bound functional
   units + control + datapath registers/routing + the banking cost.
   Under the monolithic FSM backend the per-state control cost grows with
   the machine's size: a monolithic FSM needs wider state encoding,
   deeper next-state logic and larger operand-sharing muxes — the
   structural reason the thesis's pure-LegUp translations are larger than
   the sum of Twill's small per-thread machines (§6.2).  The elastic
   dataflow backend distributes one-hot control instead — a constant-cost
   stage controller per basic block and a valid/ready channel per CFG
   edge.  Its ASAP schedule's peaks may bind more units than the
   resource-constrained list schedule, which is exactly the
   control-vs-compute trade the backend axis exposes to the DSE. *)
let of_schedule ?(banks = 1) ?(backend = Schedule.Fsm) (f : func)
    (s : Schedule.t) : t =
  let control =
    match backend with
    | Schedule.Fsm ->
        let nstates = s.Schedule.total_states in
        let per_state = Costmodel.fsm_state_luts + (nstates / 24) in
        Costmodel.fsm_base_luts + (per_state * nstates)
    | Schedule.Dataflow ->
        let nedges =
          Vec.fold_left
            (fun acc (b : block) ->
              acc + List.length (List.sort_uniq compare (succs_of_term b.term)))
            0 f.blocks
        in
        Costmodel.fsm_base_luts
        + (Costmodel.elastic_stage_luts * Vec.length f.blocks)
        + (Costmodel.elastic_channel_luts * nedges)
  in
  let datapath = 2 * num_live_insts f in
  add (banking_cost ~banks)
    (add (bound_units s) { luts = control + datapath; dsps = 0; brams = 0 })

(* A design's hardware threads: every function of the table, priced
   under the table's backend at its bank count. *)
let of_threads (m : modul) (tbl : Schedule.table) : t =
  let banks = Schedule.mem_banks tbl and backend = Schedule.backend tbl in
  sum
    (List.map
       (fun (name, s) -> of_schedule ~banks ~backend (find_func m name) s)
       (Schedule.bindings tbl))

(* BRAM blocks for locally stored data (pure-LegUp flow keeps globals and
   arrays in FPGA memories; 18 kb BRAM ~ 512 words of 32 bits usable). *)
let brams_for_words (words : int) : int = (words + 511) / 512

(* Area of the pure-LegUp translation of a whole module: every reachable
   function becomes a sub-FSM of one monolithic design, so the per-state
   control term scales with the design's TOTAL state count; all data lives
   in BRAMs. *)
let of_legup_module (m : modul) (tbl : Schedule.table) : t =
  let schedules = Schedule.bindings tbl in
  let total_states =
    List.fold_left
      (fun acc (_, s) -> acc + s.Schedule.total_states)
      0 schedules
  in
  let per_state = Costmodel.fsm_state_luts + (total_states / 24) in
  let logic =
    sum
      (List.map
         (fun (name, s) ->
           add (bound_units s)
             {
               luts =
                 Costmodel.fsm_base_luts
                 + (per_state * s.Schedule.total_states)
                 + (2 * num_live_insts (find_func m name));
               dsps = 0;
               brams = 0;
             })
         schedules)
  in
  let words =
    List.fold_left (fun acc g -> acc + g.size) 0 m.globals
    + List.fold_left
        (fun acc (f : func) ->
          fold_insts f
            (fun acc i -> match i.kind with Alloca n -> acc + n | _ -> acc)
            acc)
        0 m.funcs
  in
  add logic { luts = 0; dsps = 0; brams = brams_for_words words }

(* Twill runtime system area from the queue/semaphore inventory. *)
let of_runtime ~(queues : (int * int) list (* width_bits, depth *))
    ~(nsems : int) ~(n_hw_threads : int) : t =
  let queue_area =
    sum
      (List.map
         (fun (width_bits, depth) ->
           {
             luts = Costmodel.queue_luts ~depth ~width_bits;
             dsps = Costmodel.queue_dsps;
             brams = 0;
           })
         queues)
  in
  add queue_area
    {
      luts =
        (nsems * Costmodel.semaphore_luts)
        + (n_hw_threads * Costmodel.hw_interface_luts)
        + Costmodel.processor_interface_luts + Costmodel.scheduler_luts
        + (2 * Costmodel.bus_arbiter_luts);
      dsps = Costmodel.scheduler_dsps;
      brams = 0;
    }

let microblaze : t =
  { luts = Costmodel.microblaze_luts; dsps = 0; brams = Costmodel.microblaze_brams }
