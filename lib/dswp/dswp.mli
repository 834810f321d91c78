(** DSWP thread extraction — the module-level driver (thesis §5.2-§5.3).

    Partitions [main] into pipeline-stage thread functions over the
    program dependence graph, prunes each stage to its relevant blocks,
    inserts queue communication under the same-point discipline, keeps
    non-inlined callees inside their owning stage, and guards callees
    reachable from several stages with mutual-exclusion semaphores
    (§5.2.1).  The result is directly executable by
    {!Twill_rtsim.Sim} (cycle accurate) and emittable by the C/Verilog
    backends. *)

open Twill_ir.Ir

type threaded = {
  modul : modul;  (** globals + stage functions + surviving callees *)
  stages : string array;  (** stage function names, index = stage *)
  master : int;  (** the software master stage (receives the result) *)
  roles : Partition.role array;  (** software/hardware per stage *)
  queues : Threadgen.queue_info array;  (** the extracted channels *)
  nsems : int;  (** semaphores protecting shared callees *)
  sem_callees : (string * int) list;  (** callee -> semaphore id *)
  partition : Partition.t;  (** the underlying SCC assignment *)
  comm_licm_hoists : int;
      (** condition channels hoisted to preheaders by [~licm_conds] *)
}

val hw_stages : threaded -> string list
(** The hardware stages' entry functions, in stage order. *)

val callees_of : func -> string list
(** Direct callees of a function (deduplicated). *)

val protect_calls : func -> string -> int -> unit
(** [protect_calls f callee sid] wraps every call to [callee] inside [f]
    with take/give on semaphore [sid]. *)

type prep
(** The width- and split-independent front half of extraction: alias
    analysis, effects, the PDG of [main] and the node weights.  Compute
    once with {!prepare}, then {!run} any number of partition
    configurations against it. *)

val prepare : ?profile:int array -> modul -> prep
(** Runs the analyses shared by every partition configuration of [m]. *)

val run :
  ?config:Partition.config ->
  ?queue_depth:int ->
  ?licm_conds:bool ->
  ?profile:int array ->
  ?prep:prep ->
  modul ->
  threaded
(** Extracts threads from [main].  [profile] supplies measured per-block
    execution counts for the weight heuristic (see
    {!Twill_dswp.Weights.compute}); without it the classic 10{^depth}
    static estimate is used.  [prep] (from {!prepare} on the same module
    value — enforced by physical equality) skips the shared analyses and
    makes [profile] irrelevant.  The generated stage functions are
    verified structurally and for SSA dominance before being returned. *)

val with_queue_depth : threaded -> int -> threaded
(** [with_queue_depth t d] is [t] with every queue [d] slots deep: what
    extraction at [~queue_depth:d] gives, since the depth shapes no
    stage.  The queue table is fresh; [t] is never written, so one
    extraction can be shared by evaluations at several depths. *)
