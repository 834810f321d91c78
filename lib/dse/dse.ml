(* The design-space exploration engine.

   Evaluates every point of a {!Grid.t} — thousands of (kernel x
   partition x queue x backend) configurations — and reduces the sweep to
   a Pareto frontier over (cycles, LUTs, power) plus per-axis
   sensitivity curves.  Two levels of reuse keep the cost proportional
   to the number of distinct extractions, not the grid size:

     extract   one compile + DSWP extraction per extraction group: the
               kernel plus [Twill.Options.extract_key] of the options the
               point is extracted under (see [opts_of_point] for where
               the grid depth goes).
     simulate  every point pays only its own cycle-accurate simulation
               and area accounting ([eval_threaded]): latency and banks
               live in [Sim.config], and a comm-off point's depth is
               stamped onto a copy of the group's queue table.

   [evaluate] is the one sweep path; its [extract] hook turns a group's
   first point into the evaluator of every point in the group.  [run]
   drives it with [Par.map] and a from-source extraction that simulates
   each point; twilld's dse handler drives it with its worker pool, its
   persistent elaboration cache and a cache of point results, so there a
   point that an earlier request simulated is not simulated again.
   Every evaluation is a pure function of its point, so the results, the
   frontier and the rendered JSON do not depend on how the groups are
   scheduled or which points were cached. *)

module C = Twill_chstone.Chstone

let source_of_kernel (name : string) : string = (C.find name).C.source

(* A point's grid depth is an extraction-level queue depth when comm
   passes are on (they read and rewrite real queue depths: auto-sizing,
   capacity-merging).  Otherwise the depth shapes nothing but the queue
   table, so comm-off points of every depth share one extraction at the
   default depth and [eval_threaded] re-stamps it. *)
let opts_of_point (p : Grid.point) : Twill.options =
  let o = p.Grid.opts in
  if Twill.Comm.enabled o.Twill.comm then o
  else { o with Twill.queue_depth = Twill.default_options.Twill.queue_depth }

(* Simulation + objective projection of one already-extracted design
   under one point's own options: rtsim and the area model read the
   same queue table. *)
let eval_threaded (opts : Twill.options) (t : Twill.Dswp.threaded) :
    Pareto.metrics =
  let t =
    if Twill.Comm.enabled opts.Twill.comm then t
    else Twill.Dswp.with_queue_depth t opts.Twill.queue_depth
  in
  let r = Twill.run_twill_threaded ~opts t in
  let area = r.Twill.scenario.Twill.area in
  {
    Pareto.cycles = r.Twill.scenario.Twill.cycles;
    luts = area.Twill.Area.luts;
    dsps = area.Twill.Area.dsps;
    brams = area.Twill.Area.brams;
    power_mw = r.Twill.scenario.Twill.power_mw;
    executed = r.Twill.scenario.Twill.executed;
    nqueues = r.Twill.nqueues;
  }

(* --- the sweep ------------------------------------------------------------- *)

type reuse = {
  points : int;
  extractions : int;  (* distinct DSWP extractions *)
  simulations : int;  (* = points: evaluated points *)
}

let hit_rate ~paid ~total =
  if total = 0 then 0.0
  else float_of_int (total - paid) /. float_of_int total

type sweep = {
  grid : Grid.t;
  seed : int;
  sampled : int option;
  results : Pareto.result list;  (* grid order *)
  frontier : Pareto.result list;
  sensitivities : Pareto.sensitivity list;
  reuse : reuse;
}

(* stable grouping by key, preserving first-occurrence order *)
let group_by (type k) (key : 'a -> k) (xs : 'a list) : 'a list list =
  let tbl : (k, 'a list ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun x ->
      let k = key x in
      match Hashtbl.find_opt tbl k with
      | Some cell -> cell := x :: !cell
      | None ->
          Hashtbl.replace tbl k (ref [ x ]);
          order := k :: !order)
    xs;
  List.rev_map (fun k -> List.rev !(Hashtbl.find tbl k)) !order

(* Points indexed by grid position, one group per extracted design: the
   kernel plus the extraction key of the point's evaluation options. *)
let extraction_groups (pts : Grid.point list) : (int * Grid.point) list list =
  List.mapi (fun i p -> (i, p)) pts
  |> group_by (fun (_, p) ->
         (p.Grid.kernel, Twill.Options.extract_key (opts_of_point p)))

(* the evaluated points: the whole grid, or a deterministic sample *)
let points ~seed ?sample (g : Grid.t) : Grid.point list =
  match sample with None -> Grid.points g | Some n -> Grid.sample ~seed n g

let sweep_of g ~seed ?sample ~extractions results =
  let n = List.length results in
  {
    grid = g;
    seed;
    sampled = sample;
    results;
    frontier = Pareto.frontier results;
    sensitivities = Pareto.sensitivities g results;
    reuse = { points = n; extractions; simulations = n };
  }

let evaluate ~map ~extract ?(seed = 42) ?sample (g : Grid.t) : sweep =
  let groups = extraction_groups (points ~seed ?sample g) in
  (* resolve each group's evaluator once, from its first point, and
     evaluate every point of the group with it *)
  let eval_group ipts =
    let eval = extract (snd (List.hd ipts)) in
    List.map (fun (i, p) -> (i, { Pareto.point = p; metrics = eval p })) ipts
  in
  List.concat (map eval_group groups)
  |> List.sort (fun (i, _) (j, _) -> compare i j)
  |> List.map snd
  |> sweep_of g ~seed ?sample ~extractions:(List.length groups)

(* compile from source and extract under [opts]: what twilld's
   elaboration cache does on a miss *)
let extract_kernel (opts : Twill.options) (kernel : string) :
    Twill.Dswp.threaded =
  Twill.extract ~opts (Twill.compile ~opts (source_of_kernel kernel))

let run ?seed ?sample (g : Grid.t) : sweep =
  let extract p =
    let t = extract_kernel (opts_of_point p) p.Grid.kernel in
    fun q -> eval_threaded q.Grid.opts t
  in
  evaluate ~map:Twill.Par.map ~extract ?seed ?sample g

(* The ungrouped baseline: every point compiles and extracts under its
   own options, so a comm-off point's queues come from a real extraction
   at its depth.  Its results must equal {!run}'s, which is what shows
   that grouping by [Twill.Options.extract_key] and the depth re-stamp
   are sound. *)
let run_cold ?(seed = 42) ?sample (g : Grid.t) : sweep =
  let pts = points ~seed ?sample g in
  let eval p =
    let opts = p.Grid.opts in
    let metrics = eval_threaded opts (extract_kernel opts p.Grid.kernel) in
    { Pareto.point = p; metrics }
  in
  Twill.Par.map eval pts
  |> sweep_of g ~seed ?sample ~extractions:(List.length pts)

(* --- deterministic JSON rendering (BENCH_dse.json) ------------------------- *)

(* Hand-rolled like bench/main.ml's other artifacts.  Deliberately free
   of wall-clock or machine-dependent fields: the same grid and seed
   must reproduce the file byte-for-byte (integers from the simulator,
   floats from +,*,/ only, fixed-point formatting). *)

let result_line (r : Pareto.result) : string =
  let m = r.Pareto.metrics in
  let metrics =
    [
      ("cycles", string_of_int m.Pareto.cycles);
      ("luts", string_of_int m.Pareto.luts);
      ("dsps", string_of_int m.Pareto.dsps);
      ("brams", string_of_int m.Pareto.brams);
      ("power_mw", Printf.sprintf "%.6f" m.Pareto.power_mw);
      ("executed", string_of_int m.Pareto.executed);
    ]
  in
  "{"
  ^ String.concat ", "
      (List.map
         (fun (k, v) -> Printf.sprintf "%S: %s" k v)
         (Grid.fields r.Pareto.point @ metrics))
  ^ "}"

(* one digest covers the full result set, so the committed file pins
   every evaluated point without carrying thousands of rows *)
let results_digest (rs : Pareto.result list) : string =
  Digest.to_hex (Digest.string (String.concat "\n" (List.map result_line rs)))

let sensitivity_line (s : Pareto.sensitivity) : string =
  Printf.sprintf
    "{\"axis\": %S, \"value\": %S, \"n\": %d, \"mean_slowdown\": %.4f, \
     \"min_slowdown\": %.4f, \"max_slowdown\": %.4f}"
    s.Pareto.axis s.Pareto.value s.Pareto.n s.Pareto.mean_slowdown
    s.Pareto.min_slowdown s.Pareto.max_slowdown

let json_of_sweep (s : sweep) : string =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"schema\": \"twill-dse-v1\",\n";
  add "  \"grid\": %S,\n" (Grid.to_spec s.grid);
  add "  \"seed\": %d,\n" s.seed;
  (match s.sampled with
  | None -> add "  \"sampled\": null,\n"
  | Some n -> add "  \"sampled\": %d,\n" n);
  add "  \"points\": %d,\n" (List.length s.results);
  add
    "  \"reuse\": {\"points\": %d, \"extractions\": %d, \"simulations\": \
     %d, \"extract_hit_rate\": %.4f},\n"
    s.reuse.points s.reuse.extractions s.reuse.simulations
    (hit_rate ~paid:s.reuse.extractions ~total:s.reuse.points);
  add "  \"results_digest\": %S,\n" (results_digest s.results);
  add "  \"frontier\": [\n";
  List.iteri
    (fun i r ->
      add "    %s%s\n" (result_line r)
        (if i < List.length s.frontier - 1 then "," else ""))
    s.frontier;
  add "  ],\n";
  add "  \"sensitivity\": [\n";
  List.iteri
    (fun i x ->
      add "    %s%s\n" (sensitivity_line x)
        (if i < List.length s.sensitivities - 1 then "," else ""))
    s.sensitivities;
  add "  ]\n";
  add "}\n";
  Buffer.contents b
