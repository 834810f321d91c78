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
    and [cycles] (property-checked in test/test_diff.ml).

    Values.  The decoded engine holds every 32-bit value as a native
    [int] carrying its sign extension — registers, arguments, the memory
    image, handler values and memory-hook addresses — so executing an
    instruction allocates nothing.  [int32] appears only at the
    boundaries: {!run_shared}'s [args] and the {!result} are converted
    once per run.  {!Tree} keeps computing with [Int32] and converts at
    memory, handlers and prints, which makes it an independent check of
    the native representation. *)

open Ir

exception Trap of string
(** Division by zero, out-of-bounds memory, or a malformed phi. *)

exception Out_of_fuel

(** Handlers for the Twill runtime operations: one closure per
    queue/semaphore id, indexed by the ids appearing in the IR.  A caller
    binds its channel state (and, in the runtime simulator, the thread's
    clock) into each closure once.  Without handlers a runtime primitive
    traps, which is correct for sequential programs.  A queue value is
    the sign extension of its 32-bit word as a native [int]
    ([Int32.to_int]/[Int32.of_int] convert exactly), so a handler never
    boxes it. *)
type handlers = {
  produce : (int -> unit) array;  (** per queue *)
  consume : (unit -> int) array;  (** per queue *)
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

val fresh_memory : modul -> Layout.t * int array
(** Builds the static layout and a zeroed, initialised memory image, one
    sign-extended native [int] per 32-bit word, sized to the image
    rounded up with power-of-two headroom (capped at the historical
    4 MB) — every simulation flow shares this size, so out-of-image
    behaviour stays consistent across them.
    @raise Trap if the image is larger than the cap. *)

val run_shared :
  ?fuel:int ->
  layout:Layout.t ->
  mem:int array ->
  ?handlers:handlers ->
  ?block_cost:(func -> block -> int) ->
  ?engine:engine ->
  ?ctx:ctx ->
  ?mem_hook:(func -> inst -> int -> unit) ->
  ?cycles_cell:int ref ->
  modul ->
  entry:string ->
  args:int32 array ->
  result
(** Runs [entry] against caller-provided shared memory — the building
    block for executing DSWP stage functions as concurrent threads over
    one address space.  [mem] is an image from {!fresh_memory}; [args]
    and the {!result} stay [int32] and are converted once per run.
    Without [block_cost] every instruction and terminator is charged its
    Microblaze cost from the decoded tables (a software thread); with
    it, instructions cost nothing and [block_cost f b] is charged each
    time block [b] exits (a hardware thread's scheduled state count, or
    a block profiler returning 0).  [ctx] (Decoded engine only) shares
    decoded code across calls; it must have been built for [m].
    [mem_hook] fires on every Load/Store with the evaluated word address
    (a native [int]) just before the access — the simulator's
    memory-bus contention point and the runtime alias-checker's probe —
    without paying a per-instruction closure on other operations.
    [cycles_cell], when given, is used as the live cycle accumulator, so
    handler callbacks can read the thread's progress mid-run (the final
    value also lands in [result.cycles]).

    @raise Invalid_argument if [ctx] was built for a different module. *)

val run :
  ?fuel:int -> ?handlers:handlers ->
  ?block_cost:(func -> block -> int) -> ?engine:engine -> modul -> result
(** [run m] executes [main] on a fresh memory image. *)

(**/**)

val norm : int -> int
(** Sign-extends the low 32 bits of a native int: the decoded engine's
    canonical form of a 32-bit value. *)

val eval_binop_int : binop -> int -> int -> int
(** {!eval_binop} on normalised native ints; the same traps. *)

val eval_icmp_int : icmp -> int -> int -> int
(** {!eval_icmp} on normalised native ints: 1 / 0. *)
