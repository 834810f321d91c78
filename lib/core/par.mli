(** Deterministic domain-parallelism for independent work items.

    All combinators share one process-wide slot budget of
    [Domain.recommended_domain_count () - 1] worker domains; when no slot
    is free the work runs inline on the caller, so nesting (a {!pair}
    inside a {!map} inside the benchmark harness) can never oversubscribe
    the machine.  Results keep the input order and exceptions re-raise on
    the caller, making a parallel run observationally identical to the
    sequential one as long as the thunks are independent. *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel [List.map].  The first item always runs on
    the calling domain.  If several items raise, the lowest-index
    exception wins. *)

val pair : (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** Runs both thunks, the second on a worker domain when a slot is free.
    Both always run to completion before any exception re-raises. *)

type pool
(** A persistent worker pool for long-lived servers: domains are spawned
    once (against the same process-wide slot budget, so a pool plus
    nested {!map}/{!pair} calls cannot oversubscribe) and kept alive
    across jobs, so a server pays for spawning them once. *)

val pool : ?workers:int -> unit -> pool
(** Spawns up to [workers] (default: the full remaining slot budget)
    worker domains.  Fewer — possibly zero — are spawned when the budget
    is short; the pool still works, see {!pool_map}. *)

val pool_workers : pool -> int
(** Worker domains actually spawned (informational). *)

val pool_map : pool -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map over the pool.  The calling thread
    runs the first item inline and then helps drain the job queue, so a
    zero-worker pool degrades to a sequential map rather than blocking.
    Safe to call from several threads at once — jobs interleave on the
    shared queue.  If several items raise, the lowest-index exception
    wins. *)

val pool_shutdown : pool -> unit
(** Signals the workers to exit, joins them and releases their slots.
    The pool must not be used afterwards. *)
