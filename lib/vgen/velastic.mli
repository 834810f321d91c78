(** Elastic dataflow Verilog backend (the second RTL lowering): one
    latency-insensitive stage per scheduled basic block — a one-hot token
    register plus step counter — with explicit valid/ready handshake
    channels ([ev_*]/[rdy_*] wires) on every CFG edge and a per-stage
    [stall_*] flag while parked on the runtime call port.  Ports, result
    registers, callee sub-threads and every micro-op's statements come
    from {!Twill_vgen.Vemit}'s shared thread body, so the runtime system
    and the cosim harness drive either backend unchanged; the schedule is
    the design's [Dataflow] schedule (resource-free ASAP) from
    {!Twill_hls.Schedule.table}, banked like the one rtsim times. *)

open Twill_ir.Ir

val emit_hw_thread : Twill_ir.Layout.t -> func -> Twill_hls.Schedule.t -> string
(** One [module twill_thread_<name> (...)] under the elastic template,
    from a [Dataflow] schedule of the function. *)
