(** Reference interpreter for the IR.

    Three roles: the semantic oracle every transform is differentially
    tested against; the "pure software on Microblaze" timing model (a
    sequential program performs no runtime-primitive operations, so
    summing per-instruction costs is exact); and — parameterised with
    queue/semaphore handlers and a block-cost hook — the execution core of
    the cycle-accurate simulator's software and hardware threads and of
    RTL co-simulation's software stages.

    Two engines share one semantics: the original tree-walking
    interpreter ({!Tree}, the oracle) and the pre-decoded engine
    ({!Decoded}, the default), which flattens each function once into
    arrays of pre-resolved instructions — operands become direct
    accessors, phis split into per-predecessor move tables, call targets
    resolve to function handles, and Microblaze instruction and
    terminator costs are pre-computed.  They agree bit-for-bit on [ret], [prints], [executed]
    and [cycles] (property-checked in test/test_diff.ml). *)

open Ir

exception Trap of string
(** Division by zero, out-of-bounds memory, or a malformed phi. *)

exception Out_of_fuel

(** Handlers for the Twill runtime operations: one closure per
    queue/semaphore id, indexed by the ids appearing in the IR.  A caller
    binds its channel state (and, in the runtime simulator, the thread's
    clock) into each closure once.  Without handlers a runtime primitive
    traps, which is correct for sequential programs. *)
type handlers = {
  produce : (int32 -> unit) array;  (** per queue *)
  consume : (unit -> int32) array;  (** per queue *)
  sem_give : (int -> unit) array;  (** per semaphore; arg = count *)
  sem_take : (int -> unit) array;  (** per semaphore; arg = count *)
}

val eval_binop : binop -> int32 -> int32 -> int32
(** C semantics on 32 bits: wraparound arithmetic, truncating signed
    division, shift counts masked to 5 bits. @raise Trap on /0. *)

val eval_icmp : icmp -> int32 -> int32 -> int32
(** 1l / 0l. *)

type engine =
  | Decoded  (** pre-decoded execution engine (default) *)
  | Tree  (** original tree-walking oracle, for differential testing *)

type ctx
(** Decoded code for one module against one layout, shared by every
    thread of an execution session.  Functions decode lazily on first
    call.  Decoded code snapshots the IR: drop the context if any pass
    mutates a function after decoding ([inst.kind], [block.insts] and
    [block.term] are mutable) — contexts must not outlive transforms. *)

val make_context : layout:Layout.t -> modul -> ctx
(** A fresh, empty decode context for [m].  Pass it to every
    {!run_shared} of the same session so threads share decoded code. *)

type result = {
  ret : int32;
  cycles : int;
      (** Microblaze instruction + terminator costs, or the sum of the
          block-cost hook's answers *)
  executed : int;
  prints : int32 list;  (** program order *)
}

val fresh_memory : ?mem_words:int -> modul -> Layout.t * int32 array
(** Builds the static layout and a zeroed, initialised memory image.
    [mem_words] defaults to the image size rounded up with power-of-two
    headroom (capped at the historical 4 MB) — every simulation flow
    shares this default, so out-of-image behaviour stays consistent
    across them. *)

val run_shared :
  ?fuel:int ->
  layout:Layout.t ->
  mem:int32 array ->
  ?handlers:handlers ->
  ?block_cost:(func -> block -> int) ->
  ?engine:engine ->
  ?ctx:ctx ->
  ?mem_hook:(func -> inst -> int32 -> unit) ->
  ?cycles_cell:int ref ->
  modul ->
  entry:string ->
  args:int32 array ->
  result
(** Runs [entry] against caller-provided shared memory — the building
    block for executing DSWP stage functions as concurrent threads over
    one address space.  Without [block_cost] every instruction and
    terminator is charged its Microblaze cost from the decoded tables
    (a software thread); with it, instructions cost nothing and
    [block_cost f b] is charged each time block [b] exits (a hardware
    thread's scheduled state count, or a block profiler returning 0).
    [ctx] (Decoded engine only) shares decoded code across calls; it
    must have been built for [m].  [mem_hook] fires on every Load/Store
    with the evaluated word address just before the access — the
    simulator's memory-bus contention point and the runtime
    alias-checker's probe — without paying a per-instruction closure on
    other operations.  [cycles_cell], when given, is used as the live cycle
    accumulator, so handler callbacks can read the thread's progress
    mid-run (the final value also lands in [result.cycles]).

    @raise Invalid_argument if [ctx] was built for a different module. *)

val run :
  ?fuel:int -> ?mem_words:int -> ?handlers:handlers ->
  ?block_cost:(func -> block -> int) -> ?engine:engine -> modul -> result
(** [run m] executes [main] on a fresh memory image. *)
