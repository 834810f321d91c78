(** Per-function side-effect summaries — memory regions read and written
    (in canonical object terms via the points-to results) plus whether
    the function prints — computed bottom-up over the acyclic call graph.
    A function's own allocas are excluded: addresses never flow upward in
    mini-C and locals are zero-initialised at declaration, so calls
    cannot observe each other's scratch (concurrent access to the shared
    static frames is serialised by the DSWP stage's semaphores). *)

open Twill_ir

type summary = {
  reads : Memdep.baseset;
  writes : Memdep.baseset;
  prints : bool;
}

type t = { alias : Memdep.t; table : (string, summary) Hashtbl.t }

val empty_summary : summary
val build : Memdep.t -> Twill_ir.Ir.modul -> t
val summary : t -> string -> summary
