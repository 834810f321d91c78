(** Pass manager: the standard optimisation pipeline mirroring the pass
    list the thesis runs before DSWP (§5.1: "mem2reg", "simplifycfg",
    "inline", "gvn", "adce", "loop-simplify", then the custom globals
    pass), with the LegUp-style if-conversion and loop-invariant code
    motion that feed the HLS scheduler.

    The pipeline is an ordered list of named stages so the differential
    fuzzer can observe the program after every prefix ([run_prefix]) and
    bisect a divergence to the first stage that introduces it. *)

open Twill_ir.Ir

type options = {
  inline_aggressive : bool;  (** inline every call site *)
  inline_threshold : int;  (** size bound for default inlining *)
  unroll : bool;  (** LegUp-style full unrolling of small counted loops *)
  check : bool;  (** verify SSA between stages (tests) *)
  break_pass : string option;
      (** fault injection for the fuzzer's planted-bug tests: after the
          named stage runs, [main]'s return value is deliberately
          miscompiled (XORed with a nonzero constant) *)
}

val default : options

val per_function_cleanup : func -> bool
(** simplify-CFG + mem2reg, then constant folding / DCE / simplify /
    if-conversion / GVN / LICM to a fixpoint.  Returns whether anything
    changed. *)

val verify_if : options -> modul -> unit

val stage_names : string list
(** Names of the pipeline stages, in execution order. *)

val nstages : int
(** [List.length stage_names]. *)

val run_range : ?opts:options -> int -> int -> modul -> bool
(** [run_range k0 k1 m] runs the stages with indices in [\[k0, k1)] in
    place.  Splitting a prefix — [run_range 0 j] then [run_range j k] —
    is identical to running it in one go, which lets an incremental
    caller (the fuzz oracle) observe every prefix while applying each
    pass exactly once.  Returns whether any stage changed the module
    (a [break_pass] sabotage counts as a change); [false] means the
    module — and hence any observation of it — is exactly as before the
    call. *)

val run_prefix : ?opts:options -> int -> modul -> unit
(** [run_prefix k m] runs the first [k] stages (0 <= k <= [nstages]) in
    place; [run_prefix nstages] is exactly [run]. *)

val run : ?opts:options -> modul -> unit
(** The full pipeline, in place: per-function cleanup, inlining, call-able
    DCE, loop preheaders, globals-to-arguments. *)
