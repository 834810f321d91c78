(* Benchmark harness: regenerates every table and figure of the thesis's
   Chapter 6 from the reproduction (see DESIGN.md for the experiment
   index).  Run:

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- table-6.1    # one artifact

   Absolute numbers come from the cycle-accurate simulator; the
   paper-reported values are printed alongside where the thesis gives
   them, so shapes can be compared directly.  EXPERIMENTS.md records a
   full run. *)

module C = Twill_chstone.Chstone
module Dse = Twill_dse.Dse
module Grid = Twill_dse.Grid
module Pareto = Twill_dse.Pareto

let line = String.make 78 '-'

let header title = Printf.printf "\n%s\n%s\n%s\n" line title line

let compute_report (b : C.benchmark) : Twill.report =
  let r = Twill.evaluate ~name:b.C.name b.C.source in
  (match b.C.expected with
  | Some e when r.Twill.sw.Twill.ret <> e ->
      failwith (Printf.sprintf "%s: checksum regression" b.C.name)
  | _ -> ());
  r

(* Every kernel's report, computed in parallel on first use: reports are
   expensive and the benchmarks are independent. *)
let reports : (C.benchmark * Twill.report) list Lazy.t =
  lazy (List.combine C.all (Twill.Par.map compute_report C.all))

(* ------------------------------------------------------------------ *)
(* Figures 6.3-6.6 and the ablation as slices of the DSE grid          *)
(* ------------------------------------------------------------------ *)

(* Each sensitivity figure is a set of points of the option space that
   lib/dse sweeps, evaluated once by [Dse.run] over a named grid slice
   and shared by the text printer and BENCH_paper.json.  A slice pins
   every axis [Grid.default] sweeps, so its spec, sent as-is to [twillc
   dse --grid] or [twillc daemon dse], evaluates the same points. *)
let slice ?(kernels = List.map (fun (b : C.benchmark) -> b.C.name) C.all)
    (axes : string) : Pareto.result list Lazy.t =
  lazy
    (match Grid.parse ("kernels=" ^ String.concat "," kernels ^ ";" ^ axes) with
    | Ok g -> (Dse.run g).Dse.results
    | Error e -> failwith ("bench: " ^ e))

let split_point =
  List.map
    (fun k ->
      ( k,
        slice ~kernels:[ k ]
          "unroll=false;nstages=3;queue_depth=8;queue_latency=2;\
           sw_frac=0.05,0.1,0.25,0.5,0.75,0.9" ))
    [ "mips"; "blowfish" ]

let queue_latency =
  slice "unroll=false;nstages=3;queue_depth=8;queue_latency=2,8,32,128"

let queue_depth =
  slice "unroll=false;nstages=3;queue_depth=1,2,8,32;queue_latency=2"

let partitioner =
  slice "unroll=false,true;nstages=2,3;queue_depth=8;queue_latency=2"

let cycles (r : Pareto.result) = r.Pareto.metrics.Pareto.cycles

(* a slice's points per kernel, in grid order *)
let by_kernel (rs : Pareto.result list) : (string * Pareto.result list) list =
  List.map
    (fun (b : C.benchmark) ->
      ( b.C.name,
        List.filter (fun r -> r.Pareto.point.Grid.kernel = b.C.name) rs ))
    C.all

(* ------------------------------------------------------------------ *)
(* Table 6.1: DSWP results — queues, semaphores, HW threads            *)
(* ------------------------------------------------------------------ *)

let paper_table_6_1 =
  [
    ("mips", (12, 0, 1)); ("adpcm", (328, 0, 5)); ("aes", (100, 0, 3));
    ("blowfish", (104, 2, 2)); ("gsm", (65, 0, 3)); ("jpeg", (576, 3, 6));
    ("motion", (47, 0, 4)); ("sha", (82, 0, 1));
  ]

let table_6_1 () =
  header "Table 6.1 — DSWP results (#queues / #semaphores / #HW threads)";
  Printf.printf "%-10s | %8s %6s %10s | %28s\n" "benchmark" "queues" "sems"
    "HW threads" "paper (queues/sems/threads)";
  List.iter
    (fun ((b : C.benchmark), (r : Twill.report)) ->
      let pq, ps, pt =
        match List.assoc_opt b.C.name paper_table_6_1 with
        | Some (q, s, t) -> (q, s, t)
        | None -> (0, 0, 0)
      in
      Printf.printf "%-10s | %8d %6d %10d | %10d /%3d /%2d\n" b.C.name
        r.Twill.twill.Twill.nqueues r.Twill.twill.Twill.nsems
        r.Twill.twill.Twill.n_hw_threads pq ps pt)
    (Lazy.force reports)

(* ------------------------------------------------------------------ *)
(* Table 6.2: LUTs — LegUp vs Twill HW threads vs Twill vs +Microblaze *)
(* ------------------------------------------------------------------ *)

let paper_table_6_2 =
  [
    ("mips", (2101, 1830, 2318, 3752)); ("adpcm", (16893, 7182, 28682, 30116));
    ("aes", (16488, 8302, 15338, 16772)); ("blowfish", (5872, 3293, 10493, 11927));
    ("gsm", (7397, 5888, 11983, 13417)); ("jpeg", (31084, 18443, 56101, 57535));
    ("motion", (16295, 8116, 13467, 14901)); ("sha", (12956, 7856, 13352, 14768));
  ]

let table_6_2 () =
  header "Table 6.2 — FPGA LUTs: pure LegUp vs Twill";
  Printf.printf "%-10s | %8s %10s %8s %8s | %s\n" "benchmark" "LegUp"
    "TwillHWT" "Twill" "Twill+MB" "LegUp/HWT Twill/HWT (paper rows)";
  let rs = Lazy.force reports in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let acc1 = ref 0.0 and acc2 = ref 0.0 in
  List.iter
    (fun ((b : C.benchmark), (r : Twill.report)) ->
      let legup = r.Twill.hw.Twill.area.Twill.Area.luts in
      let hwt = r.Twill.twill.Twill.hw_threads_area.Twill.Area.luts in
      let twill = r.Twill.twill.Twill.scenario.Twill.area.Twill.Area.luts in
      let mb = twill + Twill.Area.microblaze.Twill.Area.luts in
      acc1 := !acc1 +. log (ratio legup hwt);
      acc2 := !acc2 +. log (ratio twill hwt);
      let pl, ph, ptw, pm =
        match List.assoc_opt b.C.name paper_table_6_2 with
        | Some v -> v
        | None -> (0, 0, 0, 0)
      in
      Printf.printf
        "%-10s | %8d %10d %8d %8d |  %5.2f     %5.2f   (%d/%d/%d/%d)\n"
        b.C.name legup hwt twill mb (ratio legup hwt) (ratio twill hwt) pl ph
        ptw pm)
    rs;
  let n = float_of_int (List.length rs) in
  Printf.printf
    "geomean: LegUp/TwillHWT = %.2fx (paper: 1.73x), Twill/TwillHWT = %.2fx \
     (paper: 1.35x)\n"
    (exp (!acc1 /. n)) (exp (!acc2 /. n))

(* ------------------------------------------------------------------ *)
(* Figure 6.1: power normalised to pure software                      *)
(* ------------------------------------------------------------------ *)

let fig_6_1 () =
  header "Figure 6.1 — power normalised to the pure-Microblaze implementation";
  Printf.printf "%-10s | %10s %10s %10s   (expected order: HW < Twill < SW=1)\n"
    "benchmark" "pure HW" "Twill" "pure SW";
  List.iter
    (fun ((b : C.benchmark), (r : Twill.report)) ->
      let sw = r.Twill.sw.Twill.power_mw in
      Printf.printf "%-10s | %10.2f %10.2f %10.2f\n" b.C.name
        (r.Twill.hw.Twill.power_mw /. sw)
        (r.Twill.twill.Twill.scenario.Twill.power_mw /. sw)
        1.0)
    (Lazy.force reports)

(* ------------------------------------------------------------------ *)
(* Figure 6.2: speedups normalised to pure software                   *)
(* ------------------------------------------------------------------ *)

let fig_6_2 () =
  header "Figure 6.2 — performance speedups normalised to pure software";
  Printf.printf "%-10s | %12s %12s %12s\n" "benchmark" "pure HW" "Twill"
    "Twill/HW";
  let acc_sw = ref 0.0 and acc_hw = ref 0.0 and accp = ref 0.0 in
  let rs = Lazy.force reports in
  List.iter
    (fun ((b : C.benchmark), (r : Twill.report)) ->
      acc_sw := !acc_sw +. log r.Twill.speedup_vs_sw;
      acc_hw := !acc_hw +. log r.Twill.speedup_vs_hw;
      accp := !accp +. log r.Twill.hw_speedup_vs_sw;
      Printf.printf "%-10s | %11.2fx %11.2fx %11.2fx\n" b.C.name
        r.Twill.hw_speedup_vs_sw r.Twill.speedup_vs_sw r.Twill.speedup_vs_hw)
    rs;
  let n = float_of_int (List.length rs) in
  Printf.printf
    "geomean: HW/SW = %.2fx, Twill/SW = %.2fx (paper avg 22.2x), Twill/HW = \
     %.2fx (paper avg 1.63x)\n"
    (exp (!accp /. n))
    (exp (!acc_sw /. n))
    (exp (!acc_hw /. n))

(* ------------------------------------------------------------------ *)
(* Figures 6.3 / 6.4: performance vs targeted partition split point    *)
(* ------------------------------------------------------------------ *)

let split_sweep name =
  Printf.printf "%-8s | %10s %10s %8s\n" "SW split" "cycles" "norm (5%)"
    "queues";
  let rs = Lazy.force (List.assoc name split_point) in
  let base = cycles (List.hd rs) in
  List.iter
    (fun (r : Pareto.result) ->
      Printf.printf "%7.0f%% | %10d %10.2f %8d\n"
        (r.Pareto.point.Grid.opts.Twill.partition.Twill.Partition.sw_fraction
       *. 100.0)
        (cycles r)
        (float_of_int base /. float_of_int (cycles r))
        r.Pareto.metrics.Pareto.nqueues)
    rs

let fig_6_3 () =
  header
    "Figure 6.3 — MIPS performance vs targeted partition split point (paper: \
     even splits worst; queue count anti-correlates with speed)";
  split_sweep "mips"

let fig_6_4 () =
  header "Figure 6.4 — Blowfish performance vs targeted partition split point";
  split_sweep "blowfish"

(* ------------------------------------------------------------------ *)
(* Figures 6.5 / 6.6: sensitivity to queue latency and queue length    *)
(* ------------------------------------------------------------------ *)

(* each kernel's cycles normalised to its point at axis value [base],
   then the column averages *)
let normalised_table ~label ~axis ~base (rs : Pareto.result list) =
  let rows = by_kernel rs in
  let columns =
    List.map (fun r -> axis r.Pareto.point.Grid.opts) (snd (List.hd rows))
  in
  Printf.printf "%-10s |" "benchmark";
  List.iter
    (fun v -> Printf.printf " %8s" (Printf.sprintf "%s=%d" label v))
    columns;
  Printf.printf "\n";
  let sums = Array.make (List.length columns) 0.0 in
  List.iter
    (fun (name, pts) ->
      Printf.printf "%-10s |" name;
      let b =
        cycles (List.find (fun r -> axis r.Pareto.point.Grid.opts = base) pts)
      in
      List.iteri
        (fun i r ->
          let norm = float_of_int b /. float_of_int (cycles r) in
          sums.(i) <- sums.(i) +. norm;
          Printf.printf " %8.3f" norm)
        pts;
      Printf.printf "\n")
    rows;
  Printf.printf "%-10s |" "average";
  Array.iter
    (fun s -> Printf.printf " %8.3f" (s /. float_of_int (List.length rows)))
    sums;
  Printf.printf "\n"

let fig_6_5 () =
  header
    "Figure 6.5 — Twill speedup vs queue latency, normalised to 2-cycle \
     latency (paper: ~27% average slowdown at latency 128; 3-stage pipeline)";
  normalised_table ~label:"lat" ~axis:(fun o -> o.Twill.queue_latency) ~base:2
    (Lazy.force queue_latency)

let fig_6_6 () =
  header
    "Figure 6.6 — Twill speedup vs queue length, normalised to length 8 \
     (paper: ~9.7% slowdown from 32 down to 8)";
  normalised_table ~label:"len" ~axis:(fun o -> o.Twill.queue_depth) ~base:8
    (Lazy.force queue_depth)

(* ------------------------------------------------------------------ *)
(* RTL co-simulation: emitted Verilog vs the rtsim reference           *)
(* ------------------------------------------------------------------ *)

let cosim () =
  header
    "Co-simulation — emitted RTL (vsim) vs rtsim reference (3-stage \
     pipeline); AGREE = same return value and print trace";
  Printf.printf "%-10s | %12s %12s %8s | %s\n" "benchmark" "RTL cycles"
    "model cycles" "ratio" "verdict";
  let opts = Twill.default_options in
  let rows =
    Twill.Par.map
      (fun (b : C.benchmark) ->
        let t = Twill.extract ~opts (Twill.compile ~opts b.C.source) in
        (b.C.name, Twill.cosim ~opts t))
      C.all
  in
  List.iter
    (fun (name, (r : Twill.Cosim.report)) ->
      Printf.printf "%-10s | %12d %12d %8.2f | %s\n" name r.Twill.Cosim.rtl_cycles
        r.Twill.Cosim.model_cycles
        (float_of_int r.Twill.Cosim.rtl_cycles
        /. float_of_int (max 1 r.Twill.Cosim.model_cycles))
        (if r.Twill.Cosim.agree then "AGREE" else "DISAGREE"))
    rows;
  if List.exists (fun (_, (r : Twill.Cosim.report)) -> not r.Twill.Cosim.agree) rows
  then failwith "cosim: RTL disagrees with rtsim"

(* Committed-artifact writer: every BENCH_*.json emitter follows one
   discipline — a deterministic JSON object on stdout (values straight
   from the simulator and models, no wall-clock), diagnostics on stderr,
   and a nonzero exit after
   the artifact is fully printed when a gate fails, so CI can both diff
   the file and read the verdict.  [emit] renders the object with the
   two-space/close-brace layout the committed files use; [arr] renders
   a row list as a JSON array in that same layout (rows carry their own
   four-space indent). *)
module Artifact = struct
  type gate = { ok : bool; msg : string }

  let gate ok msg = { ok; msg }
  let arr (rows : string list) : string =
    "[\n" ^ String.concat ",\n" rows ^ "\n  ]"

  let emit (fields : (string * string) list) : unit =
    print_string "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then print_string ",\n";
        Printf.printf "  %S: %s" k v)
      fields;
    print_string "\n}\n"

  let check (gates : gate list) : unit =
    let bad = List.filter (fun g -> not g.ok) gates in
    List.iter (fun g -> Printf.eprintf "%s\n" g.msg) bad;
    if bad <> [] then exit 1
end

(* ------------------------------------------------------------------ *)
(* Ablations called out in DESIGN.md                                   *)
(* ------------------------------------------------------------------ *)

(* Per kernel, the cycles of the five columns.  The default, k=2 and
   unroll columns are points of the [partitioner] slice.  Local-search
   refinement and static 10^depth weights (extraction without a profile)
   are no option-table knob, so each is one direct run. *)
let ablation_columns = [ "default"; "refine"; "static_wt"; "k2"; "unroll" ]

let ablation_rows : (string * int list) list Lazy.t =
  lazy
    (let direct =
       Twill.Par.map
         (fun (b : C.benchmark) ->
           let m = Twill.compile b.C.source in
           let partition = Twill.Partition.{ default_config with refine = true } in
           let opts = { Twill.default_options with partition } in
           ( (Twill.run_twill ~opts m).Twill.scenario.Twill.cycles,
             (Twill.run_twill_threaded (Twill.Dswp.run m)).Twill.scenario
               .Twill.cycles ))
         C.all
     in
     List.map2
       (fun (name, pts) (refine, static_wt) ->
         (* grid order: unroll=false then true, each at nstages=2 then 3 *)
         match List.map cycles pts with
         | [ k2; default; _; unroll ] ->
             (name, [ default; refine; static_wt; k2; unroll ])
         | _ -> failwith "bench: partitioner slice")
       (by_kernel (Lazy.force partitioner))
       direct)

let ablation () =
  header
    "Ablation — Twill cycles under partitioner variants (lower is better): \
     default (profile-guided, k=3) vs local-search refinement vs static \
     10^depth weights vs two stages";
  Printf.printf "%-10s | %10s %10s %10s %10s %10s\n" "benchmark" "default"
    "refine" "static-wt" "k=2" "unroll";
  List.iter
    (fun (name, cols) ->
      Printf.printf "%-10s |" name;
      List.iter (Printf.printf " %10d") cols;
      Printf.printf "\n")
    (Lazy.force ablation_rows)

(* BENCH_comm.json: the committed communication-optimizer study — every
   bundled kernel at the paper's queue-sensitivity operating point
   (3-stage pipeline, 2-deep queues), comparing the unoptimized pipeline
   against each comm pass alone and all four together, so per-pass cycle
   attribution is machine-readable.  Everything on stdout is an integer
   from the simulator or the pass reports, so the file reproduces
   byte-for-byte on any machine.  Exits
   nonzero if any variant changes observable behaviour or the full pass
   set regresses the aggregate cycle count. *)
let json_comm () =
  let opts0 = { Twill.default_options with Twill.queue_depth = 2 } in
  let variants =
    ("none", Twill.Comm.none)
    :: List.map
         (fun pass ->
           match Twill.Comm.parse pass with
           | Ok c -> (pass, c)
           | Error e -> failwith ("json_comm: " ^ e))
         Twill.Comm.pass_names
    @ [ ("all", Twill.Comm.all) ]
  in
  let rows =
    Twill.Par.map
      (fun (b : C.benchmark) ->
        (* one compile + profile + DSWP preparation per kernel; each
           variant re-extracts (the passes rewrite the channel graph) *)
        let m = Twill.compile ~opts:opts0 b.C.source in
        let profile = Twill.profile_blocks ~opts:opts0 m in
        let prep = Twill.Dswp.prepare ~profile m in
        let per =
          List.map
            (fun (vn, c) ->
              let opts = { opts0 with Twill.comm = c } in
              let t, rep = Twill.extract_comm ~opts ~prep m in
              let r = Twill.run_twill_threaded ~opts t in
              (vn, rep, r))
            variants
        in
        (b.C.name, per))
      C.all
  in
  let base_of per =
    match per with
    | (_, _, (r : Twill.twill_result)) :: _ -> r
    | [] -> failwith "json_comm: no variants"
  in
  let behaviour_ok =
    List.for_all
      (fun (_, per) ->
        let b = base_of per in
        List.for_all
          (fun (_, _, (r : Twill.twill_result)) ->
            r.Twill.scenario.Twill.ret = b.Twill.scenario.Twill.ret
            && r.Twill.scenario.Twill.prints = b.Twill.scenario.Twill.prints)
          per)
      rows
  in
  let row_json (name, per) =
    let base = (base_of per).Twill.scenario.Twill.cycles in
    let vjson =
      List.map
        (fun (vn, (rep : Twill.Comm.report), (r : Twill.twill_result)) ->
          Printf.sprintf
            "      {\"comm\": %S, \"cycles\": %d, \"delta\": %d, \
             \"luts\": %d, \"merged\": %d, \"resized\": %d, \"bursts\": \
             %d, \"licm_hoists\": %d}"
            vn r.Twill.scenario.Twill.cycles
            (r.Twill.scenario.Twill.cycles - base)
            r.Twill.scenario.Twill.area.Twill.Area.luts
            (List.length rep.Twill.Comm.merges)
            (List.length rep.Twill.Comm.resizes)
            (List.length rep.Twill.Comm.burst_qids)
            rep.Twill.Comm.licm_hoists)
        per
    in
    Printf.sprintf "    {\"benchmark\": %S, \"variants\": [\n%s\n    ]}" name
      (String.concat ",\n" vjson)
  in
  (* aggregate cycles per variant across all kernels *)
  let agg =
    List.map
      (fun (vn, _) ->
        let cycles =
          List.fold_left
            (fun acc (_, per) ->
              let _, _, (r : Twill.twill_result) =
                List.find (fun (n, _, _) -> n = vn) per
              in
              acc + r.Twill.scenario.Twill.cycles)
            0 rows
        in
        (vn, cycles))
      variants
  in
  let base_total = List.assoc "none" agg in
  let all_total = List.assoc "all" agg in
  let agg_json =
    List.map
      (fun (vn, cycles) ->
        Printf.sprintf
          "    {\"comm\": %S, \"cycles\": %d, \"delta\": %d}" vn cycles
          (cycles - base_total))
      agg
  in
  Artifact.emit
    [
      ("schema", "\"twill-comm-v1\"");
      ( "operating_point",
        Printf.sprintf
          "{\"nstages\": 3, \"queue_depth\": 2, \"queue_latency\": %d}"
          Twill.default_options.Twill.queue_latency );
      ("results", Artifact.arr (List.map row_json rows));
      ("aggregate", Artifact.arr agg_json);
      ("behaviour_identical", Printf.sprintf "%b" behaviour_ok);
    ];
  Printf.eprintf "comm: %d kernels x %d variants, aggregate %d -> %d \
                  (%+d cycles)\n"
    (List.length rows) (List.length variants) base_total all_total
    (all_total - base_total);
  Artifact.check
    [
      Artifact.gate behaviour_ok "comm: behaviour diverged under a comm pass";
      Artifact.gate (all_total < base_total)
        "comm: full pass set failed to reduce aggregate cycles";
    ]

(* BENCH_backend.json: the committed cross-backend study — every bundled
   kernel compiled and extracted once at the default operating point,
   then evaluated under both RTL lowerings (monolithic FSM vs elastic
   dataflow): rtsim cycles, modeled area, schedule shape, and the
   three-way differential co-simulation verdict (rtsim vs FSM-RTL vs
   dataflow-RTL, including the per-stage call-port issue streams).
   Everything on stdout is an integer or bool from the simulator and
   models, so the file reproduces byte-for-byte on any machine.  Exits
   nonzero if any kernel's backends
   disagree on behaviour, any call-port stream differs, or no kernel is
   Pareto-dominated by the dataflow lowering on (cycles, LUTs). *)
let json_backend () =
  let backends = Twill.Schedule.all_backends in
  let rows =
    Twill.Par.map
      (fun (b : C.benchmark) ->
        (* one compile + extraction serves both backends: the lowering
           only changes the replayed schedule flavour and area model *)
        let m = Twill.compile b.C.source in
        let t = Twill.extract m in
        let per =
          List.map
            (fun backend ->
              let opts = { Twill.default_options with Twill.backend } in
              let r = Twill.run_twill_threaded ~opts t in
              (* the schedules rtsim replayed: hardware stages and callees *)
              let scheds = Twill.Schedule.bindings r.Twill.schedules in
              let states =
                List.fold_left
                  (fun acc (_, s) -> acc + s.Twill.Schedule.total_states)
                  0 scheds
              in
              let min_ii =
                List.fold_left
                  (fun acc (_, (s : Twill.Schedule.t)) ->
                    Array.fold_left
                      (fun acc ii ->
                        if ii > 0 && (acc = 0 || ii < acc) then ii else acc)
                      acc s.Twill.Schedule.ii)
                  0 scheds
              in
              (backend, r, states, min_ii))
            backends
        in
        let bk = Twill.cosim_backends t in
        (b.C.name, per, bk))
      C.all
  in
  let metrics_of per backend =
    let _, (r : Twill.twill_result), _, _ =
      List.find (fun (bk, _, _, _) -> bk = backend) per
    in
    ( r.Twill.scenario.Twill.cycles,
      r.Twill.scenario.Twill.area.Twill.Area.luts )
  in
  let dominates per =
    let fc, fl = metrics_of per Twill.Schedule.Fsm in
    let dc, dl = metrics_of per Twill.Schedule.Dataflow in
    dc <= fc && dl <= fl && (dc < fc || dl < fl)
  in
  let all_agree =
    List.for_all (fun (_, _, bk) -> bk.Twill.bk_agree) rows
  in
  let dominant =
    List.length (List.filter (fun (_, per, _) -> dominates per) rows)
  in
  let row_json (name, per, (bk : Twill.backends_report)) =
    let side backend =
      let _, (r : Twill.twill_result), states, min_ii =
        List.find (fun (b, _, _, _) -> b = backend) per
      in
      Printf.sprintf
        "{\"cycles\": %d, \"luts\": %d, \"dsps\": %d, \"states\": %d, \
         \"min_ii\": %d}"
        r.Twill.scenario.Twill.cycles
        r.Twill.scenario.Twill.area.Twill.Area.luts
        r.Twill.scenario.Twill.area.Twill.Area.dsps states min_ii
    in
    Printf.sprintf
      "    {\"benchmark\": %S,\n\
      \     \"fsm\": %s,\n\
      \     \"dataflow\": %s,\n\
      \     \"rtl_cycles\": {\"fsm\": %d, \"dataflow\": %d},\n\
      \     \"cosim_agree\": %b, \"ops_match\": %b, \"dominates\": %b}"
      name
      (side Twill.Schedule.Fsm)
      (side Twill.Schedule.Dataflow)
      bk.Twill.bk_fsm.Twill.Cosim.rtl_cycles
      bk.Twill.bk_dataflow.Twill.Cosim.rtl_cycles bk.Twill.bk_agree
      bk.Twill.bk_ops_match (dominates per)
  in
  Artifact.emit
    [
      ("schema", "\"twill-backend-v1\"");
      ("results", Artifact.arr (List.map row_json rows));
      ( "aggregate",
        Printf.sprintf
          "{\"kernels\": %d, \"pareto_dominant\": %d, \"all_agree\": %b}"
          (List.length rows) dominant all_agree );
    ];
  Printf.eprintf
    "backend: %d kernels, %d dataflow-dominant, agree=%b\n"
    (List.length rows) dominant all_agree;
  Artifact.check
    [
      Artifact.gate all_agree "backend: three-way cosim diverged";
      Artifact.gate (dominant > 0)
        "backend: dataflow lowering dominates no kernel on (cycles, LUTs)";
    ]

(* BENCH_mem.json: the committed memory-banking study — every bundled
   kernel at the queue-sensitivity operating point (3-stage pipeline),
   evaluated at 1, 2 and 4 shared-memory banks under both RTL
   lowerings.  For every (kernel, backend, banks) point the interpreted
   and compiled rtsim engines must produce byte-identical stats
   (including the per-bank grant/wait counters), and the runtime alias
   checker is armed throughout, so any dependence-oracle optimism traps
   the artifact.  At 4 banks the three-way differential co-simulation
   (rtsim vs FSM RTL vs dataflow RTL, with per-bank call-port
   projections) must also agree.  Everything on stdout is an integer or
   bool from the simulator and models, so the file reproduces
   byte-for-byte on any machine.  Exits
   nonzero unless every engine pair and backend agrees and at least one
   kernel's cycle count improves at 4 banks. *)
let json_mem () =
  let banks_axis = [ 1; 2; 4 ] in
  let backends = Twill.Schedule.all_backends in
  let rows =
    Twill.Par.map
      (fun (b : C.benchmark) ->
        (* banking is virtual (the plan is a pure function of the
           module), so one compile + extraction serves every bank count
           and backend *)
        let opts0 = Twill.default_options in
        let m = Twill.compile ~opts:opts0 b.C.source in
        let t = Twill.extract ~opts:opts0 m in
        let per =
          List.concat_map
            (fun backend ->
              List.map
                (fun banks ->
                  let opts =
                    {
                      opts0 with
                      Twill.backend;
                      mem_banks = banks;
                      check_memdep = true;
                    }
                  in
                  let r = Twill.run_twill_threaded ~opts t in
                  let si =
                    Twill.Sim.simulate_threaded ~engine:Twill.Sim.Interpreted
                      ~config:(Twill.sim_config opts)
                      ~schedules:r.Twill.schedules t
                  in
                  (backend, banks, r, si = r.Twill.stats))
                banks_axis)
            backends
        in
        let bk =
          Twill.cosim_backends
            ~opts:{ opts0 with Twill.mem_banks = 4; check_memdep = true }
            t
        in
        (b.C.name, per, bk))
      C.all
  in
  let cycles_of per backend banks =
    let _, _, (r : Twill.twill_result), _ =
      List.find (fun (bk, n, _, _) -> bk = backend && n = banks) per
    in
    r.Twill.scenario.Twill.cycles
  in
  let improved per =
    List.exists
      (fun backend -> cycles_of per backend 4 < cycles_of per backend 1)
      backends
  in
  let engines_ok =
    List.for_all
      (fun (_, per, _) -> List.for_all (fun (_, _, _, same) -> same) per)
      rows
  in
  let cosim_ok = List.for_all (fun (_, _, bk) -> bk.Twill.bk_agree) rows in
  let n_improved =
    List.length (List.filter (fun (_, per, _) -> improved per) rows)
  in
  let ints a =
    "[" ^ String.concat ", " (Array.to_list (Array.map string_of_int a)) ^ "]"
  in
  let row_json (name, per, (bk : Twill.backends_report)) =
    let pjson =
      List.map
        (fun (backend, banks, (r : Twill.twill_result), same) ->
          Printf.sprintf
            "      {\"backend\": %S, \"banks\": %d, \"cycles\": %d, \
             \"luts\": %d, \"bank_grants\": %s, \"bank_waits\": %s, \
             \"engines_identical\": %b}"
            (Twill.Schedule.backend_name backend)
            banks r.Twill.scenario.Twill.cycles
            r.Twill.scenario.Twill.area.Twill.Area.luts
            (ints r.Twill.stats.Twill.Sim.mem_bank_grants)
            (ints r.Twill.stats.Twill.Sim.mem_bank_waits)
            same)
        per
    in
    Printf.sprintf
      "    {\"benchmark\": %S, \"points\": [\n\
       %s\n\
      \    ], \"cosim4_agree\": %b, \"ops4_match\": %b, \"improved_at_4\": \
       %b}"
      name
      (String.concat ",\n" pjson)
      bk.Twill.bk_agree bk.Twill.bk_ops_match (improved per)
  in
  Artifact.emit
    [
      ("schema", "\"twill-mem-v1\"");
      ( "operating_point",
        Printf.sprintf "{\"nstages\": 3, \"queue_latency\": %d}"
          Twill.default_options.Twill.queue_latency );
      ("banks", "[1, 2, 4]");
      ("results", Artifact.arr (List.map row_json rows));
      ( "aggregate",
        Printf.sprintf
          "{\"kernels\": %d, \"improved_at_4\": %d, \"engines_identical\": \
           %b, \"cosim_agree\": %b}"
          (List.length rows) n_improved engines_ok cosim_ok );
    ];
  Printf.eprintf
    "mem: %d kernels x %d banks x %d backends, %d improved at 4 banks, \
     engines=%b cosim=%b\n"
    (List.length rows) (List.length banks_axis) (List.length backends)
    n_improved engines_ok cosim_ok;
  Artifact.check
    [
      Artifact.gate engines_ok
        "mem: rtsim engines diverged under banking (per-bank stats differ)";
      Artifact.gate cosim_ok
        "mem: three-way cosim diverged at 4 banks";
      Artifact.gate (n_improved > 0)
        "mem: no kernel's cycle count improved at 4 banks";
    ]

(* BENCH_paper.json: the thesis's headline numbers per bundled kernel —
   the pure-software and pure-hardware baselines and the Twill hybrid
   (cycles, instructions executed, area, power) plus the extraction
   shape of Table 6.1, then the rows behind Figures 6.3/6.4 (cycles and
   queues per split point), 6.5 and 6.6 (cycles per queue latency and
   depth) and the ablation's five columns.  Every column is an integer
   or a fixed-precision float from the simulator and models, so the file
   reproduces byte-for-byte on any machine.  [Twill.evaluate] (through
   [compute_report]) already fails on a checksum regression or on flows that
   disagree. *)
let json_paper () =
  let area (a : Twill.Area.t) =
    Printf.sprintf "\"luts\": %d, \"dsps\": %d, \"brams\": %d" a.Twill.Area.luts
      a.Twill.Area.dsps a.Twill.Area.brams
  in
  let flow (s : Twill.scenario) =
    Printf.sprintf "\"cycles\": %d, \"executed\": %d, \"power_mw\": %.6f"
      s.Twill.cycles s.Twill.executed s.Twill.power_mw
  in
  let row_json ((b : C.benchmark), (r : Twill.report)) =
    let tw = r.Twill.twill in
    Printf.sprintf
      "    {\"benchmark\": %S, \"ret\": %ld,\n\
      \     \"sw\": {%s},\n\
      \     \"hw\": {%s, %s},\n\
      \     \"twill\": {%s, %s, \"hw_thread_luts\": %d, \"runtime_luts\": \
       %d, \"nqueues\": %d, \"nsems\": %d, \"n_hw_threads\": %d}}"
      b.C.name r.Twill.sw.Twill.ret (flow r.Twill.sw) (flow r.Twill.hw)
      (area r.Twill.hw.Twill.area) (flow tw.Twill.scenario)
      (area tw.Twill.scenario.Twill.area)
      tw.Twill.hw_threads_area.Twill.Area.luts
      tw.Twill.runtime_area.Twill.Area.luts tw.Twill.nqueues tw.Twill.nsems
      tw.Twill.n_hw_threads
  in
  let rows = Lazy.force reports in
  (* the figure rows: a kernel, then named integer columns *)
  let ints name cols =
    Printf.sprintf "    {\"benchmark\": %S, %s}" name
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) cols))
  in
  let point key axis (r : Pareto.result) =
    ints r.Pareto.point.Grid.kernel
      [ (key, axis r.Pareto.point.Grid.opts); ("cycles", cycles r) ]
  in
  let split (r : Pareto.result) =
    let f = r.Pareto.point.Grid.opts.Twill.partition.Twill.Partition.sw_fraction in
    ints r.Pareto.point.Grid.kernel
      [
        ("sw_pct", Float.to_int (Float.round (f *. 100.0)));
        ("cycles", cycles r);
        ("nqueues", r.Pareto.metrics.Pareto.nqueues);
      ]
  in
  let abl (name, cols) = ints name (List.combine ablation_columns cols) in
  Artifact.emit
    [
      ("schema", "\"twill-paper-v1\"");
      ("results", Artifact.arr (List.map row_json rows));
      ( "split_point",
        Artifact.arr
          (List.concat_map (fun (_, rs) -> List.map split (Lazy.force rs))
             split_point) );
      ( "queue_latency",
        Artifact.arr
          (List.map
             (point "queue_latency" (fun o -> o.Twill.queue_latency))
             (Lazy.force queue_latency)) );
      ( "queue_depth",
        Artifact.arr
          (List.map
             (point "queue_depth" (fun o -> o.Twill.queue_depth))
             (Lazy.force queue_depth)) );
      ("ablation", Artifact.arr (List.map abl (Lazy.force ablation_rows)));
    ];
  Printf.eprintf "paper: %d kernels\n" (List.length rows)

let artifacts =
  [
    ("table-6.1", table_6_1);
    ("table-6.2", table_6_2);
    ("fig-6.1", fig_6_1);
    ("fig-6.2", fig_6_2);
    ("fig-6.3", fig_6_3);
    ("fig-6.4", fig_6_4);
    ("fig-6.5", fig_6_5);
    ("fig-6.6", fig_6_6);
    ("ablation", ablation);
    ("cosim", cosim);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [ "--json-comm" ] -> json_comm ()
  | [ "--json-backend" ] -> json_backend ()
  | [ "--json-mem" ] -> json_mem ()
  | [ "--json-paper" ] -> json_paper ()
  | [] ->
      Printf.printf "Twill reproduction — regenerating all Chapter 6 artifacts\n";
      List.iter (fun (_, f) -> f ()) artifacts
  | names ->
      List.iter
        (fun n ->
          match List.assoc_opt n artifacts with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown artifact %s; available: %s\n" n
                (String.concat ", " (List.map fst artifacts));
              exit 1)
        names
