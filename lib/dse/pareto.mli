(** Pareto frontiers over (cycles, LUTs, power) and per-axis sensitivity
    summaries — the analysis half of the DSE subsystem.  Everything here
    is a deterministic, libm-free function of its inputs, so committed
    artifacts (BENCH_dse.json) are byte-reproducible. *)

(** Objective metrics of one evaluated point. *)
type metrics = {
  cycles : int;  (** simulated makespan *)
  luts : int;  (** deployed FPGA logic, {!Twill_hls.Area} *)
  dsps : int;
  brams : int;
  power_mw : float;  (** {!Twill_hls.Power} under measured activity *)
  executed : int;
  nqueues : int;
      (** extracted queues; Figures 6.3/6.4 print it, result rows do not *)
}

type result = { point : Grid.point; metrics : metrics }

val dominates : metrics -> metrics -> bool
(** Weak Pareto dominance over (cycles, luts, power_mw): no worse on
    all three and strictly better on at least one. *)

val frontier : result list -> result list
(** Non-dominated subset in input order; points with identical
    objective triples collapse to the earliest. *)

type sensitivity = {
  axis : string;
  value : string;
  n : int;  (** slowdown ratios aggregated *)
  mean_slowdown : float;  (** cycles / cycles at the axis baseline *)
  min_slowdown : float;
  max_slowdown : float;
}

val sensitivities : Grid.t -> result list -> sensitivity list
(** Per-axis slowdown summaries: each point is normalised to the point
    agreeing on every other axis at the axis's first (baseline) grid
    value — the grid re-grown into the shape of Figures 6.5/6.6.  Axes
    with fewer than two swept values are omitted. *)
