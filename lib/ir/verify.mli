(** Structural IR well-formedness: terminated blocks with valid targets,
    phis first with incomings matching predecessors exactly, operands in
    range and alive, call arities, unique function names.  Dominance-based
    SSA validity lives in {!Twill_passes.Ssa_check} (it needs the
    dominator tree). *)

open Ir

exception Invalid of string

val check_func : modul -> func -> unit
val check_modul : ?require_main:bool -> modul -> unit
