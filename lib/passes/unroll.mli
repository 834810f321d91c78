(** Loop unrolling by iterated peeling: innermost counted loops with a
    provably constant trip count (canonical top-tested induction, no
    calls, bounded size) are peeled iteration by iteration; constant
    folding collapses the induction values and the empty remainder.
    LegUp unrolls comparable loops before scheduling; here the pass is
    off by default (see the `ablation` bench artifact). *)

val trip_count :
  Twill_ir.Ir.func -> Loops.forest -> Loops.loop -> int option

val run : Twill_ir.Ir.func -> bool
val peel_once : Twill_ir.Ir.func -> Loops.loop -> int -> unit
val lcssa_single_exit : Twill_ir.Ir.func -> Loops.loop -> bool
