(* Runtime-simulator tests: the Chapter 4 timing contracts, determinism,
   and the headline property — the cycle-accurate simulation observes the
   sequential program's semantics for random programs and configurations. *)

open Twill_ir
open Twill_rtsim

let check_i32 = Alcotest.testable (fun ppf v -> Fmt.pf ppf "%ld" v) Int32.equal

let twill_of ?(nstages = 3) src =
  let opts =
    {
      Twill.default_options with
      partition =
        { Twill.Partition.default_config with Twill.Partition.nstages = nstages };
    }
  in
  let m = Twill.compile ~opts src in
  (opts, m, Twill.extract ~opts m)

let simulate ?config ?depth (opts : Twill.options) (t : Twill.Dswp.threaded) =
  let config = Option.value config ~default:(Twill.sim_config opts) in
  let t = match depth with Some d -> Twill.Dswp.with_queue_depth t d | None -> t in
  Sim.simulate_threaded ~config t

let pipeline_src =
  "int main() { int acc = 0; for (int i = 0; i < 200; i++) { int a = (i * \
   2654435761) >> 3; int b = (a ^ i) * 5; acc += b >> 2; } return acc; }"

let bus_tests =
  [
    Alcotest.test_case "bus grants one message per cycle" `Quick (fun () ->
        let b = Bus.create "t" in
        let g1 = Bus.reserve b 10 in
        let g2 = Bus.reserve b 10 in
        let g3 = Bus.reserve b 10 in
        Alcotest.(check (list int)) "distinct consecutive grants" [ 10; 11; 12 ]
          [ g1; g2; g3 ]);
    Alcotest.test_case "grants never go backwards" `Quick (fun () ->
        let b = Bus.create "t" in
        ignore (Bus.reserve b 5);
        let g = Bus.reserve b 3 in
        Alcotest.(check bool) "slot 3 still free" true (g = 3));
    (* low-watermark frontier regression: a grant ahead of the dense
       prefix must not drag [low] past free cycles — a later request
       below the frontier has to land on the first genuinely free slot,
       and the frontier may only ever name fully-granted prefixes *)
    Alcotest.test_case "frontier skips ahead-of-prefix grants" `Quick
      (fun () ->
        let b = Bus.create "t" in
        (* grant cycle 5 ahead of the (empty) prefix: low must stay 0 *)
        Alcotest.(check int) "ahead grant lands at 5" 5 (Bus.reserve b 5);
        Alcotest.(check int) "frontier untouched" 0 b.Bus.low;
        (* fill 0..4: the scan from the frontier must stop at the still
           -free cycle 6, not inside the 0..5 run *)
        for i = 0 to 4 do
          Alcotest.(check int) "prefix fills in order" i (Bus.reserve b 0)
        done;
        (* 0..5 now granted; a request below the frontier re-grants at
           the first free cycle past the run *)
        Alcotest.(check int) "regrant after saturated run" 6 (Bus.reserve b 0);
        Alcotest.(check bool) "frontier past the run" true (b.Bus.low >= 7);
        (* every cycle below the frontier really is granted *)
        for c = 0 to b.Bus.low - 1 do
          Alcotest.(check char)
            (Printf.sprintf "cycle %d granted below frontier" c)
            '\001'
            (Bytes.get b.Bus.taken c)
        done);
    (* the frontier-accelerated arbiter vs a naive first-free-slot model
       over random request sequences: identical grant sequences, counters
       and a sound frontier after every request *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"bus matches naive arbitration model" ~count:200
         QCheck.(list_of_size (Gen.int_range 0 120) (int_bound 80))
         (fun requests ->
           let b = Bus.create "t" in
           let naive : (int, unit) Hashtbl.t = Hashtbl.create 64 in
           let naive_reserve t =
             let c = ref (max 0 t) in
             while Hashtbl.mem naive !c do incr c done;
             Hashtbl.replace naive !c ();
             !c
           in
           List.for_all
             (fun t ->
               let g = Bus.reserve b t and e = naive_reserve t in
               let frontier_sound =
                 b.Bus.low <= Bytes.length b.Bus.taken
                 &&
                 let ok = ref true in
                 for c = 0 to b.Bus.low - 1 do
                   if Bytes.get b.Bus.taken c <> '\001' then ok := false
                 done;
                 !ok
               in
               g = e && frontier_sound
               && b.Bus.grants = Hashtbl.length naive)
             requests));
  ]

let timing_tests =
  [
    Alcotest.test_case "simulation is deterministic" `Quick (fun () ->
        let opts, _, t = twill_of pipeline_src in
        let s1 = simulate opts t and s2 = simulate opts t in
        Alcotest.(check int) "same makespan" s1.Sim.cycles s2.Sim.cycles;
        Alcotest.(check check_i32) "same result" s1.Sim.ret s2.Sim.ret);
    Alcotest.test_case "makespan covers every thread" `Quick (fun () ->
        let opts, _, t = twill_of pipeline_src in
        let s = simulate opts t in
        Array.iter
          (fun (_, c) ->
            Alcotest.(check bool) "finish <= makespan" true (c <= s.Sim.cycles))
          s.Sim.thread_finish;
        Array.iter
          (fun (n, b) ->
            let f = List.assoc n (Array.to_list s.Sim.thread_finish) in
            Alcotest.(check bool) "busy <= finish" true (b <= f))
          s.Sim.thread_busy);
    Alcotest.test_case "queue latency slows the pipeline monotonically" `Quick
      (fun () ->
        let opts, _, t = twill_of pipeline_src in
        let at lat =
          (simulate
             ~config:{ (Twill.sim_config opts) with Sim.queue_latency = lat }
             opts t)
            .Sim.cycles
        in
        let c2 = at 2 and c64 = at 64 and c256 = at 256 in
        Alcotest.(check bool) "2 <= 64" true (c2 <= c64);
        Alcotest.(check bool) "64 <= 256" true (c64 <= c256));
    Alcotest.test_case "deeper queues never hurt (2% tolerance)" `Quick
      (fun () ->
        (* arbitration order makes timing only approximately monotone *)
        let opts, _, t = twill_of pipeline_src in
        let c1 = (simulate ~depth:1 opts t).Sim.cycles in
        let c8 = (simulate ~depth:8 opts t).Sim.cycles in
        let c64 = (simulate ~depth:64 opts t).Sim.cycles in
        let geq a b = float_of_int a >= 0.98 *. float_of_int b in
        Alcotest.(check bool) "1 >= 8" true (geq c1 c8);
        Alcotest.(check bool) "8 >= 64" true (geq c8 c64));
    Alcotest.test_case "pure SW simulation matches the interpreter's cycles"
      `Quick (fun () ->
        let m = Twill.compile pipeline_src in
        let sim = Twill.run_pure_sw m in
        let interp = Interp.run m in
        Alcotest.(check check_i32) "value" interp.Interp.ret sim.Twill.ret;
        Alcotest.(check int) "cycles" interp.Interp.cycles sim.Twill.cycles);
    Alcotest.test_case "hardware exploits ILP vs software" `Quick (fun () ->
        let m = Twill.compile pipeline_src in
        let sw = Twill.run_pure_sw m and hw = Twill.run_pure_hw m in
        Alcotest.(check bool) "hw at least 3x faster here" true
          (hw.Twill.cycles * 3 < sw.Twill.cycles));
    Alcotest.test_case "queue peaks bounded by depth" `Quick (fun () ->
        let opts, _, t = twill_of pipeline_src in
        let s = simulate ~depth:4 opts t in
        Array.iter
          (fun p -> Alcotest.(check bool) "peak <= depth" true (p <= 4))
          s.Sim.queue_peaks);
  ]

(* the headline property: the timed simulation observes sequential
   semantics for random programs, stage counts and queue shapes *)
let prop_sim_sound =
  QCheck.Test.make ~count:60
    ~name:"cycle simulation == sequential semantics (random configs)"
    QCheck.(
      pair Gen_minic.arbitrary
        (triple (int_range 1 6) (int_range 1 4) (int_range 2 40)))
    (fun (src, (nstages, depth_pow, latency)) ->
      match Twill_minic.Minic.run_reference ~fuel:2_000_000 src with
      | exception Twill_minic.Ast_interp.Out_of_fuel -> QCheck.assume_fail ()
      | r0 -> (
          let opts =
            {
              Twill.default_options with
              partition =
                {
                  Twill.Partition.default_config with
                  Twill.Partition.nstages;
                };
              queue_depth = 1 lsl depth_pow;
              queue_latency = latency;
            }
          in
          let m = Twill.compile ~opts src in
          let t = Twill.extract ~opts m in
          match simulate opts t with
          | s -> r0.ret = s.Sim.ret && r0.prints = s.Sim.prints
          | exception Sim.Deadlock msg ->
              QCheck.Test.fail_report ("deadlock: " ^ msg)))

(* --- engine equivalence: interpreted vs compiled ------------------------ *)

let diff_engines ?config (opts : Twill.options) (t : Twill.Dswp.threaded) =
  let config =
    match config with Some c -> c | None -> Twill.sim_config opts
  in
  Sim.diff_engines ~config ~master:t.Twill.Dswp.master t.Twill.Dswp.modul
    ~threads:(Sim.thread_specs t) ~queues:t.Twill.Dswp.queues
    ~nsems:t.Twill.Dswp.nsems ()

let contains_substr ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let engines_tests =
  List.map
    (fun (b : Twill_chstone.Chstone.benchmark) ->
      Alcotest.test_case
        ("chstone engines lockstep " ^ b.Twill_chstone.Chstone.name)
        `Slow
        (fun () ->
          let src = b.Twill_chstone.Chstone.source in
          let opts = Twill.default_options in
          let m = Twill.compile ~opts src in
          let t = Twill.extract ~opts m in
          (* diff_engines raises Engine_mismatch naming the first
             differing stats field *)
          ignore (diff_engines opts t);
          (* the two baselines of Twill.run_pure_sw / run_pure_hw: the
             whole program as one software thread, and as one hardware
             thread over local memory *)
          List.iter
            (fun (trole, local_memory) ->
              ignore
                (Sim.diff_engines ~config:(Twill.sim_config opts) m
                   ~threads:[| { Sim.tname = "main"; trole; local_memory } |]
                   ~queues:[||] ~nsems:0 ()))
            [ (Sim.Sw, false); (Sim.Hw, true) ]))
    Twill_chstone.Chstone.all
  @ [
      Alcotest.test_case "fuzz cases lockstep (50 random programs)" `Slow
        (fun () ->
          let checked = ref 0 in
          for index = 0 to 49 do
            let src =
              Twill_minic.Ast_pp.program_to_string
                (Twill_fuzz.Gen.program ~seed:6 ~index)
            in
            let opts =
              {
                Twill.default_options with
                partition =
                  {
                    Twill.Partition.default_config with
                    Twill.Partition.nstages = 1 + (index mod 6);
                  };
                queue_depth = 1 lsl (index mod 5);
                queue_latency = 1 + (index mod 7);
              }
            in
            let m = Twill.compile ~opts src in
            let t = Twill.extract ~opts m in
            let config =
              { (Twill.sim_config opts) with Sim.fuel = 3_000_000 }
            in
            match diff_engines ~config opts t with
            | _ -> incr checked
            | exception Sim.Out_of_fuel _ -> () (* budget skip, not a verdict *)
          done;
          (* the budget skips must stay the exception, not the rule *)
          Alcotest.(check bool)
            (Printf.sprintf "most cases checked (%d/50)" !checked)
            true (!checked >= 40));
      Alcotest.test_case "prints from several threads merge deterministically"
        `Quick
        (fun () ->
          (* both threads print: the master's whole trace must come
             first, then thread 1's, in thread-index order (regression:
             this used to abort with "prints scattered across threads") *)
          let src =
            "int aux() { print(100); print(101); return 0; } int main() { \
             print(1); print(2); return aux(); }"
          in
          (* unoptimised lowering: the optimiser would inline [aux] away *)
          let m = Twill_minic.Minic.compile src in
          let threads =
            [|
              { Sim.tname = "main"; trole = Sim.Sw; local_memory = false };
              { Sim.tname = "aux"; trole = Sim.Sw; local_memory = false };
            |]
          in
          let expected = [ 1l; 2l; 100l; 101l; 100l; 101l ] in
          List.iter
            (fun engine ->
              let s =
                Sim.simulate ~engine m ~threads ~queues:[||] ~nsems:0 ()
              in
              Alcotest.(check (list check_i32))
                ("merged prints, " ^ Sim.engine_name engine)
                expected s.Sim.prints)
            [ Sim.Interpreted; Sim.Compiled ]);
      Alcotest.test_case "deadlock names the blocked thread and channel"
        `Quick
        (fun () ->
          (* run only the consumer stage of a pipeline: its first consume
             blocks forever, and the Deadlock message must say which
             thread waits on which queue — identically in both engines *)
          let opts, _, t = twill_of pipeline_src in
          let specs = Sim.thread_specs t in
          let lone = [| specs.(Array.length specs - 1) |] in
          let msg_of engine =
            match
              Sim.simulate ~config:(Twill.sim_config opts) ~engine
                t.Twill.Dswp.modul ~threads:lone ~queues:t.Twill.Dswp.queues
                ~nsems:t.Twill.Dswp.nsems ()
            with
            | _ -> Alcotest.fail "expected a deadlock"
            | exception Sim.Deadlock msg -> msg
          in
          let mi = msg_of Sim.Interpreted and mc = msg_of Sim.Compiled in
          Alcotest.(check string) "same message in both engines" mi mc;
          Alcotest.(check bool) "names the thread" true
            (contains_substr ~sub:lone.(0).Sim.tname mi);
          Alcotest.(check bool) "names the queue wait" true
            (contains_substr ~sub:"queue" mi && contains_substr ~sub:"empty" mi));
      Alcotest.test_case "out of fuel names the thread" `Quick (fun () ->
          let opts, _, t = twill_of pipeline_src in
          let config = { (Twill.sim_config opts) with Sim.fuel = 50 } in
          match simulate ~config opts t with
          | _ -> Alcotest.fail "expected out-of-fuel"
          | exception Sim.Out_of_fuel msg ->
              Alcotest.(check bool) "names a thread" true
                (contains_substr ~sub:"t0" msg
                && contains_substr ~sub:"instruction budget" msg));
    ]

let suites =
  [
    ("rtsim:bus", bus_tests);
    ("rtsim:timing", timing_tests);
    ("rtsim:engines", engines_tests);
    ("rtsim:property", [ QCheck_alcotest.to_alcotest prop_sim_sound ]);
  ]
