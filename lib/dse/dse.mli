(** The design-space exploration engine: evaluates every point of a
    {!Grid.t} with three levels of incremental reuse (pass-prefix
    sharing via [Pipeline.run_range], one DSWP extraction per kernel and
    {!Twill.Options.extract_key}, per-point simulation only) and
    reduces the sweep to a Pareto frontier plus per-axis sensitivity
    summaries.  Evaluation fans out over [Par] domains; results are
    identical however the sweep is sharded. *)

val opts_of_point : Grid.point -> Twill.options
(** The options one point evaluates under: its coordinates, with the
    grid depth moved to the simulation-time override unless comm passes
    are on (they rewrite extracted queue depths). *)

val extraction_groups : Grid.point list -> (int * Grid.point) list list
(** Points indexed by grid position, grouped by kernel and
    {!Twill.Options.extract_key} of their {!opts_of_point}: each group
    shares one extracted design.  First-occurrence order. *)

val eval_group :
  (Grid.point -> Twill.Dswp.threaded) ->
  (int * Grid.point) list ->
  (int * Pareto.result) list
(** [eval_group extract g] extracts [g]'s first point once and
    simulates every point of [g] on that design. *)

val in_grid_order : (int * Pareto.result) list -> Pareto.result list

val eval_threaded : Twill.options -> Twill.Dswp.threaded -> Pareto.metrics
(** Simulate an already-extracted design under [opts] and project the
    objectives.  This is the sim-level inner loop, also used by the
    [twilld] dse handler against its persistent elaboration cache. *)

val source_of_kernel : string -> string
(** Mini-C source of a bundled CHStone kernel ([Chstone.find]). *)

(** Analytic reuse accounting, derived from the key structure of the
    evaluated points (not from cache events), so it is independent of
    sharding and timing. *)
type reuse = {
  points : int;
  compiles : int;  (** distinct (kernel, unroll) pipelines run *)
  full_compiles : int;  (** ... of which paid the full pass prefix *)
  prefix_reused : int;  (** ... of which started from a prefix snapshot *)
  extractions : int;  (** distinct DSWP extractions *)
  simulations : int;  (** = points: every point simulates *)
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

val run : ?shards:int -> ?seed:int -> ?sample:int -> Grid.t -> sweep
(** Evaluate the grid (optionally a deterministic [sample] of it).
    [shards = 0] or omitted: one [Par] task per extraction group;
    [shards = n]: groups round-robin into [n] bundles.  The sweep is
    byte-identical either way. *)

val run_cold : ?seed:int -> ?sample:int -> Grid.t -> sweep
(** No-reuse baseline: every point recompiles and re-extracts from
    source.  Produces identical results to {!run} (the
    [Pipeline.run_range] splitting contract), at full cost — the
    reference the incremental engine's hit rates are measured against. *)

val json_of_sweep : sweep -> string
(** The committed BENCH_dse.json rendering: schema [twill-dse-v1], grid
    spec, reuse counters, a digest pinning every evaluated point, the
    frontier and per-axis sensitivities.  Deterministic — no wall-clock
    or machine-dependent fields. *)

val result_line : Pareto.result -> string
(** One result row as a JSON object: {!Grid.fields} then the metrics. *)

val results_digest : Pareto.result list -> string
(** Hex digest over the canonical rendering of every result row. *)
