(* The design-space exploration subsystem: grid enumeration and spec
   round-trips, deterministic sampling, Pareto dominance/frontier
   properties, options plumbing (queue depth re-stamp, latency),
   and the headline guarantees — same seed means a byte-identical
   rendered sweep, grouping points by extraction key changes no result,
   and [Dse.run] and twilld's dse request agree. *)

module Grid = Twill_dse.Grid
module Pareto = Twill_dse.Pareto
module Dse = Twill_dse.Dse
module Sim = Twill_rtsim.Sim
module O = Twill.Options

let grid spec =
  match Grid.parse spec with Ok g -> g | Error e -> Alcotest.failf "%s: %s" spec e

(* --- grids ---------------------------------------------------------------- *)

let test_default_grid () =
  Alcotest.(check int) "committed grid size" 600 (Grid.npoints Grid.default);
  Alcotest.(check int)
    "enumeration matches npoints" (Grid.npoints Grid.default)
    (List.length (Grid.points Grid.default));
  Alcotest.(check bool)
    ">= 4 kernels" true
    (List.length Grid.default.Grid.kernels >= 4)

let test_spec_roundtrip () =
  match Grid.parse (Grid.to_spec Grid.default) with
  | Error e -> Alcotest.failf "re-parse failed: %s" e
  | Ok g ->
      Alcotest.(check string)
        "spec round-trips" (Grid.to_spec Grid.default) (Grid.to_spec g)

let test_parse_partial () =
  match Grid.parse "kernels=mips,sha; latency=2,8" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok g ->
      Alcotest.(check (list string)) "kernels" [ "mips"; "sha" ] g.Grid.kernels;
      Alcotest.(check (list string))
        "latencies" [ "2"; "8" ]
        (Grid.values g O.queue_latency);
      Alcotest.(check (list string))
        "depths kept from default"
        (Grid.values Grid.default O.queue_depth)
        (Grid.values g O.queue_depth)

let test_parse_errors () =
  let bad s =
    match Grid.parse s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "unknown axis" true (bad "wat=1");
  Alcotest.(check bool) "bad int" true (bad "nstages=two");
  Alcotest.(check bool) "engine is not an axis" true (bad "engine=compiled");
  Alcotest.(check bool) "bad comm pass" true (bad "comm=merge+wat");
  Alcotest.(check bool) "empty axis" true (bad "nstages=");
  Alcotest.(check bool) "depth out of range" true (bad "queue_depth=0")

(* comm axis values: "+"-joined pass sets, canonicalized through
   Comm.parse/show so spelling and order don't multiply grid values *)
let test_parse_comm_axis () =
  (match Grid.parse "comm=none,merge+size,all" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok g ->
      Alcotest.(check (list string))
        "canonical comm values"
        [ "none"; "merge,size"; "licm,merge,size,burst" ]
        (Grid.values g O.comm));
  (* order-insensitive canonicalization: one grid value either way *)
  match (Grid.parse "comm=size+merge", Grid.parse "comm=merge+size") with
  | Ok a, Ok b ->
      Alcotest.(check (list string))
        "order canonical" (Grid.values a O.comm) (Grid.values b O.comm)
  | _ -> Alcotest.fail "comm specs failed to parse"

let pt =
  {
    Grid.kernel = "x";
    opts =
      {
        Twill.default_options with
        partition = { Twill.Partition.default_config with nstages = 2 };
      };
  }

let with_opts f (p : Grid.point) = { p with Grid.opts = f p.Grid.opts }
let key p = O.extract_key (Dse.opts_of_point p)

(* depth joins the extraction key exactly when comm passes are enabled
   (they bake depth into the extraction), and under the profile-guided
   passes so does every simulation knob *)
let test_comm_extract_key () =
  let depth d = with_opts (fun o -> { o with queue_depth = d }) in
  let comm c = with_opts (fun o -> { o with comm = c }) in
  let latency l = with_opts (fun o -> { o with queue_latency = l }) in
  let base = depth 4 pt and deeper = depth 32 pt in
  Alcotest.(check bool)
    "comm-off points share extraction across depths" true
    (key base = key deeper);
  Alcotest.(check bool)
    "comm-off points share extraction across latencies" true
    (key base = key (latency 32 base));
  let merge = { Twill.Comm.none with merge = true } in
  Alcotest.(check bool)
    "comm-on points split extraction by depth" true
    (key (comm merge base) <> key (comm merge deeper));
  Alcotest.(check bool)
    "comm value itself splits extraction" true
    (key base <> key (comm merge base));
  Alcotest.(check bool)
    "merge alone reads no simulator knob" true
    (key (comm merge base) = key (comm merge (latency 32 base)));
  let size = { Twill.Comm.none with size = true } in
  Alcotest.(check bool)
    "profile-guided comm splits extraction by latency" true
    (key (comm size base) <> key (comm size (latency 32 base)))

(* --- the option table ------------------------------------------------------ *)

(* Random options: each knob set from candidate spellings its parser
   accepts (the rest are rejected and leave the knob alone). *)
let candidates (k : O.knob) : string QCheck.Gen.t =
  let open QCheck.Gen in
  match k.wire with
  | O.Int -> map string_of_int (int_range (-2) 300)
  | O.Float -> map O.float_to_string (float_range (-0.5) 1.5)
  | O.Bool -> map string_of_bool bool
  | O.Str ->
      oneofl
        ([ "none"; "all"; "merge,size"; "licm,burst"; "size"; "fsm";
           "dataflow"; "compiled"; "interpreted"; "verilator"; "4" ]
        @ Twill.Pipeline.stage_names)

let gen_options : Twill.options QCheck.Gen.t =
  let open QCheck.Gen in
  List.fold_left
    (fun acc (k : O.knob) ->
      acc >>= fun o ->
      map
        (fun s -> match k.parse s o with Ok o -> o | Error _ -> o)
        (candidates k))
    (return Twill.default_options) O.table

let arb_options = QCheck.make ~print:(O.key ~knobs:O.table) gen_options

let test_knob_roundtrip =
  QCheck.Test.make ~name:"every knob round-trips through print and parse"
    ~count:200 arb_options (fun o ->
      List.for_all
        (fun (k : O.knob) ->
          k.parse (k.print o) o = Ok o
          && Result.map k.print (k.parse (k.print o) Twill.default_options)
             = Ok (k.print o))
        O.table)

let test_extract_key_separates =
  QCheck.Test.make
    ~name:"a Compile or Extract knob change changes the extraction key"
    ~count:200
    QCheck.(pair arb_options arb_options)
    (fun (a, b) ->
      List.for_all
        (fun (k : O.knob) ->
          match k.parse (k.print b) a with
          | Ok a' when k.level <> O.Sim && k.print a' <> k.print a ->
              O.extract_key a' <> O.extract_key a
          | _ -> true)
        O.table)

let test_sim_knobs_under_profile =
  QCheck.Test.make
    ~name:"under profile-guided comm a Sim knob change changes the key"
    ~count:200
    QCheck.(pair arb_options arb_options)
    (fun (a, b) ->
      let a = { a with comm = { a.Twill.comm with size = true } } in
      List.for_all
        (fun (k : O.knob) ->
          match k.parse (k.print b) a with
          | Ok a' when k.level = O.Sim && k.print a' <> k.print a ->
              O.extract_key a' <> O.extract_key a
          | _ -> true)
        O.table)

let test_sample_deterministic () =
  let pts = Grid.points Grid.default in
  let a = Grid.sample ~seed:7 50 pts in
  let b = Grid.sample ~seed:7 50 pts in
  Alcotest.(check int) "size" 50 (List.length a);
  Alcotest.(check bool) "same seed, same sample" true (a = b);
  let c = Grid.sample ~seed:8 50 pts in
  Alcotest.(check bool) "different seed differs" true (a <> c);
  (* order-preserving subset: filtering the full list by membership
     reproduces the sample *)
  Alcotest.(check bool)
    "grid order preserved" true
    (List.filter (fun p -> List.mem p a) pts = a);
  Alcotest.(check bool)
    "n >= len is identity" true
    (Grid.sample ~seed:7 10_000 pts == pts)

(* --- pareto --------------------------------------------------------------- *)

let m ?(luts = 100) ?(power = 10.0) cycles =
  {
    Pareto.cycles;
    luts;
    dsps = 0;
    brams = 0;
    power_mw = power;
    executed = 0;
    nqueues = 0;
  }

let r metrics = { Pareto.point = pt; metrics }

let test_dominance () =
  Alcotest.(check bool) "strictly better" true
    (Pareto.dominates (m 10) (m 20));
  Alcotest.(check bool) "equal dominates nothing" false
    (Pareto.dominates (m 10) (m 10));
  Alcotest.(check bool) "trade-off does not dominate" false
    (Pareto.dominates (m ~luts:50 20) (m ~luts:100 10));
  Alcotest.(check bool) "one axis better, rest equal" true
    (Pareto.dominates (m ~power:5.0 10) (m ~power:10.0 10))

let test_frontier () =
  let rs = [ r (m ~luts:100 10); r (m ~luts:50 20); r (m ~luts:200 15) ] in
  let f = Pareto.frontier rs in
  Alcotest.(check int) "dominated point dropped" 2 (List.length f);
  (* ties collapse to the earliest *)
  let tied = [ r (m 10); r (m 10); r (m 5) ] in
  Alcotest.(check int) "ties collapse" 1 (List.length (Pareto.frontier tied));
  (* frontier of a frontier is itself *)
  Alcotest.(check bool) "idempotent" true (Pareto.frontier f = f)

let test_frontier_nondominated =
  QCheck.Test.make ~name:"frontier points are mutually non-dominated"
    ~count:50
    QCheck.(list_of_size (Gen.int_range 0 30) (triple small_nat small_nat small_nat))
    (fun triples ->
      let rs =
        List.map
          (fun (c, l, p) ->
            r (m ~luts:l ~power:(float_of_int p) (c + 1)))
          triples
      in
      let f = Pareto.frontier rs in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              a == b || not (Pareto.dominates a.Pareto.metrics b.Pareto.metrics))
            f)
        f)

(* --- options plumbing (depth re-stamp / latency) ---------------------------- *)

let pipeline_src =
  "int main() { int acc = 0; for (int i = 0; i < 200; i++) { int a = (i * \
   2654435761) >> 3; int b = (a ^ i) * 5; acc += b >> 2; } return acc; }"

let depths (t : Twill.Dswp.threaded) =
  Array.to_list (Array.map (fun q -> q.Twill.Threadgen.depth) t.Twill.Dswp.queues)

let test_options_plumbing () =
  let p = with_opts (fun o -> { o with queue_depth = 3; queue_latency = 17 }) pt in
  let opts = Dse.opts_of_point p in
  (* comm off: the point is extracted at the default depth, and its own
     depth is stamped onto a copy of the queue table *)
  Alcotest.(check int)
    "extracted at the default depth" Twill.default_options.Twill.queue_depth
    opts.Twill.queue_depth;
  Alcotest.(check int) "latency plumbed" 17
    (Twill.sim_config opts).Twill.Sim.queue_latency;
  (* a comm-enabled point is extracted at its own depth, so the sizing
     pass's rewritten queue depths are what rtsim and the area model see *)
  let copts =
    Dse.opts_of_point (with_opts (fun o -> { o with comm = Twill.Comm.all }) p)
  in
  Alcotest.(check bool) "comm passes enabled" true
    (Twill.Comm.enabled copts.Twill.comm);
  Alcotest.(check int) "extraction-level depth" 3 copts.Twill.queue_depth;
  (* the re-stamp: every queue at the new depth, the shared design
     untouched (twilld serves one cached extraction to many requests) *)
  let t = Twill.extract ~opts:pt.Grid.opts (Twill.compile pipeline_src) in
  let before = depths t in
  Alcotest.(check bool) "design has queues" true (before <> []);
  let t3 = Twill.Dswp.with_queue_depth t 3 in
  Alcotest.(check (list int)) "re-stamped depth" (List.map (fun _ -> 3) before)
    (depths t3);
  Alcotest.(check (list int)) "shared design untouched" before (depths t);
  Array.iter2
    (fun q q3 -> Alcotest.(check bool) "fresh queue record" true (q != q3))
    t.Twill.Dswp.queues t3.Twill.Dswp.queues

(* Two comm-off points of one kernel that differ only in depth share one
   extraction, yet each is priced on its own queues: the area model and
   rtsim read the same depth, so each point equals a from-source
   evaluation at that depth. *)
let test_depth_priced () =
  let s = Dse.run (grid "kernels=mips;unroll=false;nstages=3;queue_depth=1,32;queue_latency=2") in
  Alcotest.(check int) "one shared extraction" 1 s.Dse.reuse.Dse.extractions;
  match s.Dse.results with
  | [ shallow; deep ] ->
      Alcotest.(check bool)
        "deeper queues cost LUTs" true
        (shallow.Pareto.metrics.Pareto.luts < deep.Pareto.metrics.Pareto.luts);
      List.iter
        (fun (r : Pareto.result) ->
          let opts = r.Pareto.point.Grid.opts in
          let t =
            Twill.extract ~opts
              (Twill.compile ~opts (Dse.source_of_kernel r.Pareto.point.Grid.kernel))
          in
          let tw = Twill.run_twill_threaded ~opts t in
          let x = tw.Twill.scenario in
          let m = r.Pareto.metrics in
          let label = Grid.point_label r.Pareto.point in
          Alcotest.(check int) (label ^ ": cycles") x.Twill.cycles m.Pareto.cycles;
          Alcotest.(check int) (label ^ ": nqueues") tw.Twill.nqueues m.Pareto.nqueues;
          Alcotest.(check int) (label ^ ": luts") x.Twill.area.Twill.Area.luts m.Pareto.luts;
          Alcotest.(check int) (label ^ ": brams") x.Twill.area.Twill.Area.brams m.Pareto.brams;
          Alcotest.(check (float 0.0)) (label ^ ": power") x.Twill.power_mw m.Pareto.power_mw)
        [ shallow; deep ]
  | rs -> Alcotest.failf "expected 2 results, got %d" (List.length rs)

(* --- sweeps --------------------------------------------------------------- *)

(* small but multi-level: 2 kernels x 2 widths x 2 depths x 2 latencies *)
let small_grid =
  grid "kernels=mips,sha;unroll=false;nstages=2,3;queue_depth=1,8;queue_latency=2,32"

let test_sweep_deterministic () =
  let a = Dse.run ~seed:5 small_grid in
  let b = Dse.run ~seed:5 small_grid in
  Alcotest.(check string)
    "same seed, byte-identical JSON" (Dse.json_of_sweep a)
    (Dse.json_of_sweep b)

(* grouping must not change results: the cold path compiles and extracts
   per point at the point's own depth, the warm path once per extraction
   group and re-stamps the depth *)
let test_sweep_warm_equals_cold () =
  let g = Result.get_ok (Grid.parse ~base:small_grid "kernels=mips;unroll=false,true") in
  let warm = Dse.run g and cold = Dse.run_cold g in
  Alcotest.(check string)
    "identical results" (Dse.results_digest warm.Dse.results)
    (Dse.results_digest cold.Dse.results);
  (* comm off: depth is re-stamped and latency is sim-level, so one
     extraction per (unroll, nstages) *)
  Alcotest.(check int) "warm extracts once per group" 4
    warm.Dse.reuse.Dse.extractions;
  Alcotest.(check int)
    "cold extracts every point" warm.Dse.reuse.Dse.points
    cold.Dse.reuse.Dse.extractions

(* the twilld handler, in-process: a dse request answers with a frontier
   and a repeated one reuses every cached elaboration *)
let test_server_dse () =
  let module Server = Twill_serve.Server in
  let module Json = Twill_serve.Json in
  let t = Server.create ~workers:0 () in
  let req =
    Json.Obj
      [
        ("cmd", Json.Str "dse");
        ("grid", Json.Str "kernels=mips;queue_latency=2,32;queue_depth=1,8");
        ("seed", Json.Int 1);
      ]
  in
  let r1 = Server.handle t req in
  Alcotest.(check (option bool)) "ok" (Some true) (Json.bool_field "ok" r1);
  (* 1 kernel x 2 unroll x 3 nstages x 2 depths x 2 latencies *)
  Alcotest.(check (option int))
    "all points evaluated" (Some 24)
    (Json.int_field "points" r1);
  Alcotest.(check (option int))
    "first sweep elaborates" (Some 0)
    (Json.int_field "elabs_reused" r1);
  Alcotest.(check bool) "frontier present" true
    (Json.list_field "frontier" r1 <> Some [] && Json.mem "frontier" r1);
  let r2 = Server.handle t req in
  Alcotest.(check (option int))
    "repeat sweep reuses every elaboration"
    (Json.int_field "extractions" r2)
    (Json.int_field "elabs_reused" r2);
  (* identical results; only the reuse counter differs *)
  let strip = function
    | Json.Obj kvs ->
        Json.Obj (List.filter (fun (k, _) -> k <> "elabs_reused") kvs)
    | j -> j
  in
  Alcotest.(check string)
    "identical results modulo reuse counter"
    (Json.to_string (strip r1))
    (Json.to_string (strip r2))

(* the CLI sweep and the twilld request are one evaluator: the same
   grid, sample and seed give the same frontier rows (two here, from 12
   points over 7 extractions) *)
let test_run_equals_server () =
  let module Server = Twill_serve.Server in
  let module Json = Twill_serve.Json in
  let spec =
    "kernels=mips,sha;unroll=false;queue_latency=2,32;comm=none,size;\
     backend=fsm,dataflow"
  in
  let s = Dse.run ~sample:12 ~seed:9 (grid spec) in
  let t = Server.create ~workers:0 () in
  let r =
    Server.handle t
      (Json.Obj
         [
           ("cmd", Json.Str "dse");
           ("grid", Json.Str spec);
           ("sample", Json.Int 12);
           ("seed", Json.Int 9);
         ])
  in
  Twill.Par.pool_shutdown t.Server.pool;
  Alcotest.(check (option int)) "points" (Some 12) (Json.int_field "points" r);
  Alcotest.(check (option int))
    "extractions" (Some s.Dse.reuse.Dse.extractions)
    (Json.int_field "extractions" r);
  Alcotest.(check (list string))
    "frontier rows"
    (List.map
       (fun r -> Json.to_string (Json.of_string (Dse.result_line r)))
       s.Dse.frontier)
    (List.map Json.to_string
       (Option.value (Json.list_field "frontier" r) ~default:[]))

(* one kernel, one operating point, comm off vs all four passes: the
   optimizer must not regress the kernel, and the sweep machinery must
   carry the axis end-to-end (results, sensitivities, JSON) *)
let test_sweep_comm_axis () =
  let g =
    grid "kernels=sha;unroll=false;nstages=3;queue_depth=2;queue_latency=2;comm=none,all"
  in
  let s = Dse.run g in
  (match s.Dse.results with
  | [ base; opt ] ->
      Alcotest.(check string)
        "grid order: comm-off first" "none" (O.comm.print base.Pareto.point.Grid.opts);
      Alcotest.(check string)
        "comm-on second" "licm,merge,size,burst"
        (O.comm.print opt.Pareto.point.Grid.opts);
      Alcotest.(check bool)
        "comm passes do not regress cycles" true
        (opt.Pareto.metrics.Pareto.cycles <= base.Pareto.metrics.Pareto.cycles)
  | rs -> Alcotest.failf "expected 2 results, got %d" (List.length rs));
  let comm_rows =
    List.filter (fun sv -> sv.Pareto.axis = "comm") s.Dse.sensitivities
  in
  Alcotest.(check bool) "comm sensitivity rows" true (comm_rows <> []);
  List.iter
    (fun sv ->
      if sv.Pareto.value <> "none" then
        Alcotest.(check bool)
          "comm mean slowdown <= 1" true (sv.Pareto.mean_slowdown <= 1.0))
    comm_rows;
  (* the rendered JSON carries the axis and the per-point comm field *)
  let json = Dse.json_of_sweep s in
  let has needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "comm in grid spec" true (has "comm=none,licm+merge+size+burst");
  Alcotest.(check bool) "comm in result rows" true (has "\"comm\": \"licm,merge,size,burst\"")

let test_sweep_shape () =
  let s = Dse.run ~sample:10 ~seed:3 small_grid in
  Alcotest.(check int) "sampled size" 10 (List.length s.Dse.results);
  Alcotest.(check bool) "frontier non-empty" true (s.Dse.frontier <> []);
  Alcotest.(check bool)
    "frontier is a subset" true
    (List.for_all (fun r -> List.memq r s.Dse.results) s.Dse.frontier);
  (* every sensitivity baseline row averages to exactly 1.0 *)
  List.iter
    (fun sv ->
      if sv.Pareto.value = "2" && sv.Pareto.axis = "queue_latency" then
        Alcotest.(check (float 1e-9)) "baseline slowdown" 1.0
          sv.Pareto.mean_slowdown)
    (Dse.run small_grid).Dse.sensitivities

let suites =
  [
    ( "dse.grid",
      [
        Alcotest.test_case "default grid" `Quick test_default_grid;
        Alcotest.test_case "spec round-trip" `Quick test_spec_roundtrip;
        Alcotest.test_case "partial spec" `Quick test_parse_partial;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "comm axis parsing" `Quick test_parse_comm_axis;
        Alcotest.test_case "comm extract key" `Quick test_comm_extract_key;
        Alcotest.test_case "sampling" `Quick test_sample_deterministic;
      ] );
    ( "dse.options",
      [
        QCheck_alcotest.to_alcotest test_knob_roundtrip;
        QCheck_alcotest.to_alcotest test_extract_key_separates;
        QCheck_alcotest.to_alcotest test_sim_knobs_under_profile;
      ] );
    ( "dse.pareto",
      [
        Alcotest.test_case "dominance" `Quick test_dominance;
        Alcotest.test_case "frontier" `Quick test_frontier;
        QCheck_alcotest.to_alcotest test_frontier_nondominated;
      ] );
    ( "dse.sweep",
      [
        Alcotest.test_case "options plumbing" `Quick test_options_plumbing;
        Alcotest.test_case "each depth priced on its own queues" `Slow
          test_depth_priced;
        Alcotest.test_case "deterministic" `Slow test_sweep_deterministic;
        Alcotest.test_case "warm = cold" `Slow test_sweep_warm_equals_cold;
        Alcotest.test_case "server dse request" `Slow test_server_dse;
        Alcotest.test_case "run = server request" `Slow test_run_equals_server;
        Alcotest.test_case "comm axis sweep" `Slow test_sweep_comm_axis;
        Alcotest.test_case "shape" `Slow test_sweep_shape;
      ] );
  ]
