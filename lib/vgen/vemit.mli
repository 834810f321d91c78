(** Verilog backend for hardware threads (thesis §5.4: LegUp's Verilog
    emission modified to signal the Twill runtime).

    Owns the hardware-thread body both RTL lowerings share — the port
    list, the result registers, the callee sub-thread instances with
    their start-selected call-port mux, the phi copies of a CFG edge and
    the statements of every non-terminator micro-op — plus the FSM
    backend, which wraps that body in one central [state] register.
    {!Twill_vgen.Velastic} wraps the same body in its elastic stages.
    Runtime operations issue through the §4.4 HWInterface call port (one
    call per cycle) with the [fc_*] function codes below and park until
    [ret_valid]. *)

open Twill_ir.Ir

val fc_load : int
val fc_store : int
val fc_enqueue : int
val fc_dequeue : int
val fc_raise : int
val fc_lower : int
val fc_print : int

(** Linearised micro-states of one scheduled basic block; both backends
    run the same sequence, so they agree on the call-port protocol per
    operation. *)
type micro =
  | Comb of int list  (** non-blocking instructions sharing a state *)
  | Issue of int  (** blocking op: drive the call port *)
  | Wait of int  (** park until [ret_valid]; latch [ret_data] *)
  | Call_issue of int  (** latch args, raise the callee's start *)
  | Call_wait of int  (** park until the callee's done *)
  | Term  (** phi updates + branch *)

(** One hardware-thread module being emitted. *)
type thread = {
  backend : Twill_hls.Schedule.backend;
  f : func;
  layout : Twill_ir.Layout.t;
  buf : Buffer.t;  (** the module text so far *)
  ov : operand -> string;  (** an operand as a Verilog expression *)
  micros : micro array array;
      (** per block id, under [backend]'s schedule; [Term] is last *)
  callees : (string * int) list;  (** distinct callees with their arity *)
  fcs : string;
      (** suffix of the call-port registers the thread drives: [_r] when
          callees share the port through the mux, else empty *)
}

val pr : thread -> ('a, unit, string, unit) format4 -> 'a
(** Appends to the module text. *)

val callee_of : func -> int -> string * operand array
(** Callee and arguments of a [Call] instruction. *)

val begin_thread :
  backend:Twill_hls.Schedule.backend ->
  Twill_ir.Layout.t ->
  func ->
  Twill_hls.Schedule.t ->
  thread
(** Linearises the blocks of [f] under its schedule, which must be a
    [backend] schedule of [f] (from the design's
    {!Twill_hls.Schedule.table}), and emits the module header and port
    list. *)

val emit_datapath : thread -> unit
(** The result registers, one sub-thread instance per callee and the
    call-port mux. *)

val emit_reset : thread -> string list -> unit
(** Opens the clocked block and its reset branch: the backend's own
    reset statements, then the shared [fc_valid] and callee-start
    resets. *)

val emit_phis : thread -> ind:string -> pred:int -> target:int -> unit
(** The parallel phi copies of the CFG edge [pred -> target]. *)

val ret_value : thread -> operand option -> string
(** The value a [Ret] latches into [retval]. *)

val emit_micro :
  thread ->
  ind:string ->
  label:int ->
  advance:string ->
  term:(unit -> unit) ->
  micro ->
  unit
(** One case arm at indent [ind] labelled [label]: the statements of a
    non-terminator micro-op followed by the [advance] statement, or
    [term ()] for [Term]. *)

val emit_hw_thread : Twill_ir.Layout.t -> func -> Twill_hls.Schedule.t -> string
(** One [module twill_thread_<name> (...)] under the FSM template, from
    an [Fsm] schedule of the function. *)
