(** The design-space exploration engine: evaluates every point of a
    {!Grid.t} with two levels of reuse (one compile + DSWP extraction per
    kernel and {!Twill.Options.extract_key}, then per-point simulation
    only) and reduces the sweep to a Pareto frontier plus per-axis
    sensitivity summaries.  {!evaluate} is the one sweep path, shared by
    {!run} and the [twilld] dse handler. *)

val opts_of_point : Grid.point -> Twill.options
(** The options one point is extracted under: its coordinates, with the
    default queue depth unless comm passes are on (they read and
    rewrite extracted queue depths).  Comm-off points of every depth so
    share one extraction, and {!eval_threaded} gives each its own
    depth. *)

val extraction_groups : Grid.point list -> (int * Grid.point) list list
(** Points indexed by grid position, grouped by kernel and
    {!Twill.Options.extract_key} of their {!opts_of_point}: each group
    shares one extracted design.  First-occurrence order. *)

val source_of_kernel : string -> string
(** Mini-C source of a bundled CHStone kernel ([Chstone.find]). *)

(** Reuse accounting, derived from the grouping of the evaluated points
    (not from cache events), so it is independent of scheduling and
    timing. *)
type reuse = {
  points : int;
  extractions : int;  (** distinct DSWP extractions *)
  simulations : int;
      (** = points: the points evaluated.  {!run} simulates each of them;
          twilld answers a point it simulated before from its cache, and
          its [stats] counts the real simulations as [dse:sim] misses. *)
}

val hit_rate : paid:int -> total:int -> float
(** [1 - paid/total]: the fraction of points that reused earlier work at
    a given level. *)

type sweep = {
  grid : Grid.t;
  seed : int;
  sampled : int option;
  results : Pareto.result list;  (** grid order *)
  frontier : Pareto.result list;
  sensitivities : Pareto.sensitivity list;
  reuse : reuse;
}

val evaluate :
  map:
    (((int * Grid.point) list -> (int * Pareto.result) list) ->
    (int * Grid.point) list list ->
    (int * Pareto.result) list list) ->
  extract:(Grid.point -> Grid.point -> Pareto.metrics) ->
  ?seed:int ->
  ?sample:int ->
  Grid.t ->
  sweep
(** The sweep: select the grid's points (a deterministic [sample] of
    them under [seed], when given), group them by {!extraction_groups},
    call [extract] once per group on its first point, evaluate every
    point of the group with the evaluator it returns, and return the
    results in grid order.  [map] fans the groups out (a parallel
    [List.map]).  The evaluator must give what {!eval_threaded} gives on
    the group's extracted design under the point's own options. *)

val eval_threaded : Twill.options -> Twill.Dswp.threaded -> Pareto.metrics
(** Simulate one extracted design under one point's own options
    ([point.opts]) and project the objectives and the queue count.  When the comm passes
    are off it evaluates {!Twill.Dswp.with_queue_depth} of the design at
    the point's depth, so rtsim and the area model price the same
    queues; the design itself is never written. *)

val run : ?seed:int -> ?sample:int -> Grid.t -> sweep
(** {!evaluate} over [Par] domains; each group compiles its kernel from
    source under {!opts_of_point} and extracts, and every point
    is evaluated on that design by {!eval_threaded}. *)

val run_cold : ?seed:int -> ?sample:int -> Grid.t -> sweep
(** Ungrouped baseline: every point compiles and extracts under its own
    options, its grid depth included.  Produces identical results to
    {!run} — the reference that shows grouping by
    {!Twill.Options.extract_key} and the depth re-stamp are sound. *)

val json_of_sweep : sweep -> string
(** The committed BENCH_dse.json rendering: schema [twill-dse-v1], grid
    spec, reuse counters, a digest pinning every evaluated point, the
    frontier and per-axis sensitivities.  Deterministic — no wall-clock
    or machine-dependent fields. *)

val result_line : Pareto.result -> string
(** One result row as a JSON object: {!Grid.fields} then the metrics. *)

val results_digest : Pareto.result list -> string
(** Hex digest over the canonical rendering of every result row. *)
