(** LegUp-substitute operation scheduler (thesis §3.1.2/§5.4).

    Produces per-basic-block resource-constrained list schedules — the
    states of the FSM LegUp would generate — with combinational chaining
    of cheap operations (up to {!max_chain_depth} logic levels per state)
    and, for single-block innermost loops, an iterative-modulo-scheduling
    initiation interval bounded by resource usage (the serial divider is
    busy for its full latency) and loop-carried recurrences (scalar chains
    through phis and same-cell memory updates).

    One {!table} per design holds the schedules the runtime simulator
    replays for hardware-thread timing, {!Twill_hls.Area} derives
    functional-unit counts from, and {!Twill_vgen.Vemit} emits as RTL. *)

open Twill_ir.Ir

(** Functional units available to one hardware thread.  [queue] is the
    runtime-interface call slot: one call per cycle (§4.4). *)
type resources = {
  alu : int;
  mul : int;
  div : int;
  shift : int;
  mem : int;  (** memory-bus ports *)
  queue : int;
}

val default_resources : resources

(** RTL lowering the schedule feeds.  [Fsm] is the LegUp-style monolithic
    FSM-with-datapath (resource-constrained list schedule); [Dataflow] is
    the elastic template — one latency-insensitive stage per basic block
    with valid/ready channels between stages — whose stages bind their own
    functional units, so placement is resource-free ASAP and the II is
    bounded only by recurrences and the module-shared memory/call slots. *)
type backend = Fsm | Dataflow

val backend_name : backend -> string
val all_backends : backend list

(** Resource class of an operation. *)
type res_class = Calu | Cmul | Cdiv | Cshift | Cmem | Cqueue | Cfree

val class_of_kind : kind -> res_class
val units : resources -> res_class -> int
val latency_of_kind : kind -> int

val chainable : kind -> bool
(** Cheap combinational operations that may share a state. *)

val max_chain_depth : int

(** Memory banking: one ordering chain and one set of [res.mem] ports
    per bank instead of a single module-wide memory domain.
    [bank_of_id] is the static bank of each access
    ({!Twill_ir.Memdep.bank_table}): [Some b] chains only against bank
    [b]; [None] joins every bank's chain and occupies a port in every
    bank.  With [nbanks = 1] schedules are identical to unbanked (no
    [?banking]). *)
type banking = { nbanks : int; bank_of_id : int -> int option }

type t = {
  nstates : int array;  (** per block: FSM states (>= 1) *)
  start_arr : int array;
      (** instruction id -> start state, [-1] if unscheduled *)
  ii : int array;  (** per block: initiation interval; 0 = not pipelined *)
  peak : (res_class * int) list;  (** peak concurrency, for binding *)
  total_states : int;
}

val schedule :
  ?res:resources -> ?modulo:bool -> ?backend:backend -> ?banking:banking ->
  func -> t

(** {1 A design's schedules} *)

val banking_of_plan : Twill_ir.Memdep.plan -> func -> banking
(** [f]'s accesses under the plan's {!Twill_ir.Memdep.bank_table}. *)

val reachable : modul -> string list -> string list
(** The roots, then every function they reach through calls. *)

type table
(** One design: its schedules by function name and the backend, bank
    count and banking plan they were built with — what rtsim times, the
    area model prices, the RTL emitter lowers and cosim routes.
    Immutable, so domains may share one. *)

val table : backend:backend -> mem_banks:int -> modul -> string list -> table
(** [table ~backend ~mem_banks m roots] schedules {!reachable}[ m roots]
    with the default resources, banked by one
    {!Twill_ir.Memdep.plan_of_module} when [mem_banks > 1] (unbanked, it
    runs no points-to analysis).  Build it once the module is no longer
    mutated. *)

val of_threaded :
  backend:backend -> mem_banks:int -> Twill_dswp.Dswp.threaded -> table
(** The table of an extraction: its {!Twill_dswp.Dswp.hw_stages} and
    every callee they reach. *)

val find : table -> string -> t
(** @raise Invalid_argument if the function is not in the table. *)

val bindings : table -> (string * t) list
(** In function-name order. *)

val backend : table -> backend
val mem_banks : table -> int

val plan : table -> Twill_ir.Memdep.plan option
(** [Some] exactly when [mem_banks > 1]. *)

val cached :
  ?res:resources -> ?modulo:bool -> ?backend:backend -> ?banking:banking ->
  func -> t
(** {!schedule}, kept only for [benchmark/layers.ml]. *)

val clear_cache : unit -> unit
(** Does nothing; kept only for [benchmark/layers.ml]. *)
