(* The design-space exploration engine.

   Evaluates every point of a {!Grid.t} — thousands of (kernel x
   partition x queue x backend) configurations — and reduces the sweep to
   a Pareto frontier over (cycles, LUTs, power) plus per-axis
   sensitivity curves.  Three levels of incremental reuse keep the cost
   proportional to the number of *distinct suffixes*, not the grid size:

     compile   one pass-pipeline run per kernel and compile key.  Variants of
               the same kernel share the pass prefix below the first
               option-dependent stage ("unroll"): the prefix runs once,
               the module is snapshotted, and only the remaining stages
               re-run per variant ([Pipeline.run_range] splits exactly
               like that, so an incremental compile is identical to a
               cold one).
     extract   one profile + DSWP preparation per compile, one
               extraction per [Twill.Options.extract_key] on top of it
               (see [opts_of_point] for where the grid depth goes).
     simulate  every point pays only its own cycle-accurate simulation;
               depth/latency/banks live in [Sim.config], so a sim-level
               point is one [Twill.run_twill_threaded] call.

   Sharding: extraction groups fan out over [Par] domains — either one
   task per group (default) or [~shards:n] round-robin bundles for the
   determinism tests.  Every evaluation is a pure function of its point,
   so the result list, the frontier and the rendered JSON are identical
   however the sweep is sharded. *)

module Ir = Twill_ir.Ir
module Pipeline = Twill_passes.Pipeline
module C = Twill_chstone.Chstone

let source_of_kernel (name : string) : string = (C.find name).C.source

(* A point's grid depth is an extraction-level queue depth when comm
   passes are on (they read and rewrite real queue depths: auto-sizing,
   capacity-merging) and a simulation-time override otherwise, so
   comm-off points of every depth share one extraction. *)
let opts_of_point (p : Grid.point) : Twill.options =
  let o = p.Grid.opts in
  if Twill.Comm.enabled o.Twill.comm then o
  else
    {
      o with
      Twill.queue_depth = Twill.default_options.Twill.queue_depth;
      queue_depth_override = Some o.Twill.queue_depth;
    }

(* Simulation + objective projection of one already-extracted design
   under one point's simulator configuration. *)
let eval_threaded (opts : Twill.options) (t : Twill.Dswp.threaded) :
    Pareto.metrics =
  let r = Twill.run_twill_threaded ~opts t in
  let area = r.Twill.scenario.Twill.area in
  {
    Pareto.cycles = r.Twill.scenario.Twill.cycles;
    luts = area.Twill.Area.luts;
    dsps = area.Twill.Area.dsps;
    brams = area.Twill.Area.brams;
    power_mw = r.Twill.scenario.Twill.power_mw;
    executed = r.Twill.scenario.Twill.executed;
  }

(* --- level 1: incremental compilation ------------------------------------- *)

(* The IR is pure data (no closures, no custom blocks), so a pass-prefix
   snapshot is a Marshal round-trip. *)
let copy_modul (m : Ir.modul) : Ir.modul =
  Marshal.from_string (Marshal.to_string m []) 0

(* First pipeline stage whose behaviour depends on compile-level grid
   axes; everything before it is option-independent and shareable. *)
let unroll_stage =
  let rec idx i = function
    | [] -> failwith "dse: pipeline has no unroll stage"
    | "unroll" :: _ -> i
    | _ :: rest -> idx (i + 1) rest
  in
  idx 0 Pipeline.stage_names

type compiled = {
  c_modul : Ir.modul;
  c_prep : Twill.Dswp.prep;  (* profile + PDG/weights, shared by widths *)
}

(* Compiles every compile-level variant of one kernel: the shared prefix
   runs once on the base module, later variants run the remaining stages
   on a snapshot, the first finishes the base module in place. *)
let compile_kernel (kernel : string) (variants : Twill.options list) :
    ((string * string) * compiled) list =
  let src = source_of_kernel kernel in
  let base = Twill_minic.Minic.compile src in
  ignore (Pipeline.run_range 0 unroll_stage base);
  let modules =
    match variants with
    | [] -> []
    | first :: rest ->
        (* snapshot before the base is mutated by the first variant *)
        let copies = List.map (fun o -> (o, copy_modul base)) rest in
        (first, base) :: copies
  in
  List.map
    (fun (opts, m) ->
      ignore
        (Pipeline.run_range
           ~opts:(Twill.pipeline_options opts)
           unroll_stage Pipeline.nstages m);
      let profile = Twill.profile_blocks ~opts m in
      let prep = Twill.Dswp.prepare ~profile m in
      ((kernel, Twill.Options.compile_key opts), { c_modul = m; c_prep = prep }))
    modules

(* --- the sweep ------------------------------------------------------------- *)

type reuse = {
  points : int;
  compiles : int;  (* distinct (kernel, unroll) pipelines run *)
  full_compiles : int;  (* ... of which paid the full pass prefix *)
  prefix_reused : int;  (* ... of which started from a prefix snapshot *)
  extractions : int;  (* distinct DSWP extractions *)
  simulations : int;  (* = points: every point simulates *)
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
let group_by (type k) (key : 'a -> k) (xs : 'a list) : (k * 'a list) list =
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
  List.rev_map (fun k -> (k, List.rev !(Hashtbl.find tbl k))) !order
  |> List.rev

let dedup xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.replace seen x ();
        true
      end)
    xs

(* round-robin [xs] into [n] bundles, preserving order inside a bundle *)
let round_robin n xs =
  let buckets = Array.make n [] in
  List.iteri (fun i x -> buckets.(i mod n) <- x :: buckets.(i mod n)) xs;
  Array.to_list (Array.map List.rev buckets)

let compile_key (p : Grid.point) : string * string =
  (p.Grid.kernel, Twill.Options.compile_key p.Grid.opts)

(* Points indexed by grid position, one group per extracted design: the
   kernel plus the extraction key of the point's evaluation options. *)
let extraction_groups (pts : Grid.point list) : (int * Grid.point) list list =
  List.mapi (fun i p -> (i, p)) pts
  |> group_by (fun (_, p) ->
         (p.Grid.kernel, Twill.Options.extract_key (opts_of_point p)))
  |> List.map snd

let eval_group (extract : Grid.point -> Twill.Dswp.threaded)
    (ipts : (int * Grid.point) list) : (int * Pareto.result) list =
  let t = extract (snd (List.hd ipts)) in
  List.map
    (fun (i, p) ->
      (i, { Pareto.point = p; metrics = eval_threaded (opts_of_point p) t }))
    ipts

let in_grid_order (evaluated : (int * Pareto.result) list) : Pareto.result list =
  List.sort (fun (i, _) (j, _) -> compare i j) evaluated |> List.map snd

let run ?shards ?(seed = 42) ?sample (g : Grid.t) : sweep =
  let pts =
    let all = Grid.points g in
    match sample with None -> all | Some n -> Grid.sample ~seed n all
  in
  (* level 1, parallel over kernels: each kernel compiles its
     compile-level variants off one shared pass prefix *)
  let kernels = dedup (List.map (fun p -> p.Grid.kernel) pts) in
  let variants k =
    List.filter (fun p -> p.Grid.kernel = k) pts
    |> group_by compile_key
    |> List.map (fun (_, ps) -> opts_of_point (List.hd ps))
  in
  let compiles =
    List.concat
      (Twill.Par.map (fun k -> compile_kernel k (variants k)) kernels)
  in
  (* levels 2+3, parallel over extraction groups (or [shards] bundles of
     groups): extract once per group, then simulate each point *)
  let groups = extraction_groups pts in
  let eval_group =
    eval_group (fun p0 ->
        let c = List.assoc (compile_key p0) compiles in
        Twill.extract ~opts:(opts_of_point p0) ~prep:c.c_prep c.c_modul)
  in
  let evaluated =
    match shards with
    | None | Some 0 -> List.concat (Twill.Par.map eval_group groups)
    | Some n ->
        List.concat
          (List.concat
             (Twill.Par.map (List.map eval_group)
                (round_robin (max 1 n) groups)))
  in
  let results = in_grid_order evaluated in
  let compile_keys = dedup (List.map compile_key pts) in
  let reuse =
    {
      points = List.length pts;
      compiles = List.length compile_keys;
      full_compiles = List.length kernels;
      prefix_reused = List.length compile_keys - List.length kernels;
      extractions = List.length groups;
      simulations = List.length pts;
    }
  in
  {
    grid = g;
    seed;
    sampled = sample;
    results;
    frontier = Pareto.frontier results;
    sensitivities = Pareto.sensitivities g results;
    reuse;
  }

(* The no-reuse baseline the incremental engine is measured against:
   every point recompiles and re-extracts from source.  By the
   [Pipeline.run_range] splitting contract the results are identical to
   {!run} — the determinism suite checks that too. *)
let run_cold ?(seed = 42) ?sample (g : Grid.t) : sweep =
  let pts =
    let all = Grid.points g in
    match sample with None -> all | Some n -> Grid.sample ~seed n all
  in
  let eval_point p =
    let opts = opts_of_point p in
    let m = Twill.compile ~opts (source_of_kernel p.Grid.kernel) in
    let t = Twill.extract ~opts m in
    { Pareto.point = p; metrics = eval_threaded opts t }
  in
  let results = Twill.Par.map eval_point pts in
  let n = List.length pts in
  let reuse =
    {
      points = n;
      compiles = n;
      full_compiles = n;
      prefix_reused = 0;
      extractions = n;
      simulations = n;
    }
  in
  {
    grid = g;
    seed;
    sampled = sample;
    results;
    frontier = Pareto.frontier results;
    sensitivities = Pareto.sensitivities g results;
    reuse;
  }

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
    "  \"reuse\": {\"points\": %d, \"compiles\": %d, \"full_compiles\": %d, \
     \"prefix_reused\": %d, \"extractions\": %d, \"simulations\": %d, \
     \"compile_hit_rate\": %.4f, \"extract_hit_rate\": %.4f},\n"
    s.reuse.points s.reuse.compiles s.reuse.full_compiles
    s.reuse.prefix_reused s.reuse.extractions s.reuse.simulations
    (hit_rate ~paid:s.reuse.compiles ~total:s.reuse.points)
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
