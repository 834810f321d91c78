(** Event-driven cycle simulator for the Verilog subset emitted by
    {!Twill_vgen.Vemit} and {!Twill_vgen.Vruntime}.

    {!instantiate} elaborates a parsed design: the instance hierarchy is
    flattened (child nets get dotted names, ["queue_0.count"]), parameters
    and ranges are constant-folded, and port connections become continuous
    assigns.  {!step} advances one clock cycle with two-phase semantics:
    settle the combinational fixpoint, execute every [always @(posedge)]
    body in declaration order (blocking assignments write through
    immediately; nonblocking assignments evaluate their right-hand side
    and queue), commit the nonblocking queue in program order (bit- and
    element-selects read-modify-write at commit time), then settle again.

    Values are plain OCaml ints in canonical form: signed nets are
    sign-extended, unsigned nets are masked to their width.  The widest
    net the emitters produce is the 44-bit bus message, so everything
    fits a native int. *)

exception Elab_error of string * int
(** [(message, source line)] — raised during {!instantiate}. *)

exception Sim_error of string
(** Runtime failure: combinational loop, out-of-range memory write,
    unbounded [for] loop, or an unknown net in {!poke}/{!peek}. *)

type t

(** Scheduling engine for the design.  Both run the same closures.

    [Levelized] (the default) evaluates the continuous assigns in rank
    order off a dirty-net worklist and runs an always body only when a
    net it reads has changed.  [Fixpoint] re-evaluates every assign
    until quiescence and fires every always body on every edge; it is
    the semantic oracle and the automatic fallback when the assign
    graph has a combinational cycle (which the levelized rank order
    cannot express).  Both engines produce identical per-cycle net
    values and VCD bytes on the single-driver designs the emitters
    produce. *)
type engine = Levelized | Fixpoint

val engine_name : engine -> string
(** ["levelized"], ["fixpoint"]. *)

val instantiate :
  ?engine:engine -> ?overrides:(string * int) list -> Vparse.design ->
  string -> t
(** [instantiate design top] elaborates module [top] (found by name in
    [design]) with its parameters optionally [overrides]-ridden.  The top
    module's ports become plain nets: drive inputs with {!poke}, read
    outputs with {!peek}.  All registers start at 0; drive the design's
    reset input high for a cycle to apply declared reset values.

    Without [engine] (or with [~engine:Levelized]) the levelized engine
    is chosen, falling back to the fixpoint oracle if the assign graph
    is cyclic — {!engine_of} reports the fallback. *)

val engine_of : t -> engine
(** The engine actually in use (reports the fallback). *)

val check : string -> (unit, string * int) result
(** The well-formedness check of emitted Verilog: parses the text and
    elaborates every module in it as a top with its default parameters.
    [Error (message, line)] locates the first parse or elaboration
    error. *)

val step : t -> unit
(** Advance one clock cycle (all [always @(posedge ...)] blocks fire —
    the emitted designs are single-clock, so the clock itself is not
    modelled as a net). *)

val poke : t -> string -> int -> unit
(** Set a scalar net; the value is canonicalised to the net's type.
    Only meaningful for nets without a continuous driver (top-level
    inputs and registers) — poking a continuously-driven net is
    engine-dependent and unsupported. *)

val peek : t -> string -> int
(** Read a scalar net's canonical value. *)

val peek_elem : t -> string -> int -> int
(** Read one element of a memory net. *)

(** {2 Handles}

    A handle resolves the flattened net name once; the per-cycle
    accessors below are then O(1) array accesses.  Harness inner loops
    (the co-simulation drivers poke/peek the same bus nets every cycle)
    should use these instead of the string API. *)

type handle

val handle : t -> string -> handle
(** @raise Sim_error if the net does not exist. *)

val poke_h : t -> handle -> int -> unit
(** {!poke} through a handle; an effective change feeds the levelized
    engine's dirty worklist. *)

val peek_h : t -> handle -> int
val peek_elem_h : t -> handle -> int -> int

val net_width : t -> string -> int
(** Declared bit width of a net. @raise Sim_error if unknown. *)

val has_net : t -> string -> bool
val cycles : t -> int

val top_inputs : t -> string list
(** The top module's scalar input ports, in declaration order — the
    nets a differential driver may freely poke. *)

val compare_state : t -> t -> string option
(** [compare_state a b] compares every net (and memory element) of two
    instances elaborated from the same design; [None] if identical,
    otherwise a description of the first mismatch.  Used by the
    engine-differential suite to lock the two engines together cycle
    by cycle. *)

(** VCD waveform dumping for debugging: scalar nets only (memories are
    skipped), one timestep per {!step}. *)
module Vcd : sig
  type dumper

  val create : t -> string -> dumper
  (** [create sim path] opens [path], writes the VCD header and the
      initial [$dumpvars] section.  Dots in flattened net names are
      rewritten to underscores for viewer compatibility. *)

  val sample : dumper -> unit
  (** Record the nets that changed since the last sample; call once
      after each {!step}. *)

  val close : dumper -> unit
end
