(* Pareto frontiers and per-axis sensitivity summaries over evaluated
   design points.

   Dominance is weak dominance over the objective triple
   (cycles, LUTs, power): [a] dominates [b] when a is no worse on all
   three and strictly better on at least one.  The frontier keeps every
   non-dominated point, collapsing objective ties to the earliest point
   in grid order so the frontier — like everything else in lib/dse — is
   a deterministic function of the grid. *)

type metrics = {
  cycles : int;
  luts : int;
  dsps : int;
  brams : int;
  power_mw : float;
  executed : int;
  nqueues : int;
}

type result = { point : Grid.point; metrics : metrics }

let objectives (m : metrics) : int * int * float =
  (m.cycles, m.luts, m.power_mw)

let dominates (a : metrics) (b : metrics) : bool =
  a.cycles <= b.cycles && a.luts <= b.luts && a.power_mw <= b.power_mw
  && (a.cycles < b.cycles || a.luts < b.luts || a.power_mw < b.power_mw)

(* O(n^2) scan — grids are thousands of points, frontiers tens; fine. *)
let frontier (rs : result list) : result list =
  let arr = Array.of_list rs in
  let keep = ref [] in
  Array.iteri
    (fun i r ->
      let dominated = ref false in
      let tie_earlier = ref false in
      Array.iteri
        (fun j r' ->
          if j <> i && not !dominated then
            if dominates r'.metrics r.metrics then dominated := true
            else if
              j < i && objectives r'.metrics = objectives r.metrics
            then tie_earlier := true)
        arr;
      if (not !dominated) && not !tie_earlier then keep := r :: !keep)
    arr;
  List.rev !keep

(* --- per-axis sensitivity -------------------------------------------------- *)

(* For one axis, every point is compared against the point that agrees
   with it on every *other* axis but sits at the axis's baseline (first
   grid value): slowdown = cycles / cycles_at_baseline.  The summary per
   axis value aggregates those ratios over all such groups — the grid
   regrown into the shape of the thesis's Figures 6.5/6.6, where each
   curve is normalised to its leftmost configuration.  Arithmetic mean
   on purpose: +,/ only, so the committed JSON is bit-reproducible
   across libms (no log/exp). *)

type sensitivity = {
  axis : string;
  value : string;
  n : int;  (** ratios aggregated *)
  mean_slowdown : float;
  min_slowdown : float;
  max_slowdown : float;
}

(* the axes summarised, in report order *)
let axes =
  Twill.Options.
    [ queue_latency; queue_depth; nstages; unroll; comm; backend; mem_banks ]

let sensitivities (g : Grid.t) (rs : result list) : sensitivity list =
  (* each result's coordinates, printed once: (knob, value) per
     [Grid.knobs] entry *)
  let coords =
    List.map
      (fun r ->
        (r, List.map (fun (k : Twill.Options.knob) -> (k, k.print r.point.opts)) Grid.knobs))
      rs
  in
  List.concat_map
    (fun (k : Twill.Options.knob) ->
      match Grid.values g k with
      | [] | [ _ ] -> [] (* nothing swept on this axis *)
      | baseline :: _ as values ->
          (* per result: its value on this axis, the group of points
             that agree with it on every other coordinate, its cycles *)
          let rows =
            List.map
              (fun (r, cs) ->
                let on_axis ((k' : Twill.Options.knob), _) = k'.name = k.name in
                let others = List.filter (fun kc -> not (on_axis kc)) cs in
                ( snd (List.find on_axis cs),
                  String.concat "|" (r.point.kernel :: List.map snd others),
                  r.metrics.cycles ))
              coords
          in
          (* cycles of each group's baseline point *)
          let base : (string, int) Hashtbl.t = Hashtbl.create 64 in
          List.iter
            (fun (v, group, cycles) ->
              if v = baseline then Hashtbl.replace base group cycles)
            rows;
          (* per-value aggregation, in the grid's value order *)
          List.filter_map
            (fun v ->
              let n = ref 0 and sum = ref 0.0 in
              let mn = ref infinity and mx = ref neg_infinity in
              List.iter
                (fun (v', group, cycles) ->
                  if v' = v then
                    match Hashtbl.find_opt base group with
                    | Some c0 when c0 > 0 ->
                        let ratio = float_of_int cycles /. float_of_int c0 in
                        incr n;
                        sum := !sum +. ratio;
                        if ratio < !mn then mn := ratio;
                        if ratio > !mx then mx := ratio
                    | _ -> ())
                rows;
              if !n = 0 then None
              else
                Some
                  {
                    axis = k.grid;
                    value = v;
                    n = !n;
                    mean_slowdown = !sum /. float_of_int !n;
                    min_slowdown = !mn;
                    max_slowdown = !mx;
                  })
            values)
    axes
