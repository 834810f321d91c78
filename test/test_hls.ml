(* HLS scheduler and area/power model tests. *)

open Twill_ir
open Twill_hls
module Vec = Twill_ir.Vec

(* Builds a one-block function from a list of instruction kinds; returns
   the function and the ids in order. *)
let straight_line (kinds : Ir.kind list) : Ir.func * int list =
  let f = Ir.create_func ~name:"main" ~nparams:0 in
  let b = Ir.add_block f in
  f.Ir.entry <- b.Ir.bid;
  let ids = List.map (fun k -> Ir.append_inst f b.Ir.bid k) kinds in
  b.Ir.term <- Ir.Ret (Some (Ir.Cst 0l));
  Ir.recompute_cfg f;
  (f, ids)

let state_of (s : Schedule.t) id = s.Schedule.start_arr.(id)

let schedule_tests =
  [
    Alcotest.test_case "dependent multiplies serialize by latency" `Quick
      (fun () ->
        let open Ir in
        let f, ids =
          straight_line
            [ Binop (Mul, Cst 3l, Cst 4l); Binop (Mul, Reg 0, Cst 5l) ]
        in
        let s = Schedule.schedule f in
        let m1 = List.nth ids 0 and m2 = List.nth ids 1 in
        Alcotest.(check bool)
          "second mul waits for the first's 2-cycle latency" true
          (state_of s m2 >= state_of s m1 + 2));
    Alcotest.test_case "chainable ALU ops share a state" `Quick (fun () ->
        let open Ir in
        let f, ids =
          straight_line
            [
              Binop (Add, Cst 1l, Cst 2l);
              Binop (Xor, Reg 0, Cst 3l);
              Binop (And, Reg 1, Cst 7l);
            ]
        in
        let s = Schedule.schedule f in
        Alcotest.(check int) "all in state 0" 0 (state_of s (List.nth ids 2)));
    Alcotest.test_case "chain depth bounded" `Quick (fun () ->
        let open Ir in
        (* 6 chained adds exceed the 4-level budget: last lands in state 1 *)
        let kinds =
          Ir.Binop (Add, Cst 1l, Cst 1l)
          :: List.init 5 (fun i -> Ir.Binop (Add, Reg i, Cst 1l))
        in
        let f, ids = straight_line kinds in
        let s = Schedule.schedule f in
        Alcotest.(check bool) "last add spilled to a later state" true
          (state_of s (List.nth ids 5) >= 1));
    Alcotest.test_case "division is a long-latency serial op" `Quick (fun () ->
        let open Ir in
        let f, ids =
          straight_line
            [ Binop (Sdiv, Cst 100l, Cst 7l); Binop (Add, Reg 0, Cst 1l) ]
        in
        let s = Schedule.schedule f in
        Alcotest.(check bool) "user waits 13 cycles" true
          (state_of s (List.nth ids 1) >= 13));
    Alcotest.test_case "memory port is exclusive per state" `Quick (fun () ->
        let open Ir in
        let f, _ =
          straight_line
            [
              Load (Glob "g");
              Load (Glob "g");
              Load (Glob "g");
              Load (Glob "g");
            ]
        in
        let s = Schedule.schedule f in
        Alcotest.(check bool) "block needs >= 4 states for 4 loads" true
          (s.Schedule.nstates.(0) >= 4));
    Alcotest.test_case "resource cap bounds peak concurrency" `Quick (fun () ->
        let open Ir in
        let f, _ =
          straight_line (List.init 8 (fun _ -> Ir.Binop (Mul, Cst 3l, Cst 5l)))
        in
        let s = Schedule.schedule f in
        let peak_mul =
          try List.assoc Schedule.Cmul s.Schedule.peak with Not_found -> 0
        in
        Alcotest.(check bool) "mul peak within cap" true
          (peak_mul <= Schedule.default_resources.Schedule.mul));
    Alcotest.test_case "modulo scheduling pipelines a do-while loop" `Quick
      (fun () ->
        let src =
          "int main() { int i = 0; int acc = 0; do { acc += (i * 3) / ((i & \
           7) | 1); i++; } while (i < 100); return acc; }"
        in
        let m = Twill_minic.Minic.compile src in
        Twill_passes.Pipeline.run m;
        let f = Ir.find_func m "main" in
        let s = Schedule.schedule f in
        let pipelined = ref false in
        Array.iteri
          (fun b ii -> if ii > 0 && ii < s.Schedule.nstates.(b) then pipelined := true)
          s.Schedule.ii;
        Alcotest.(check bool) "some block has II < nstates" true !pipelined);
  ]

let area_tests =
  [
    Alcotest.test_case "8x32 queue is 65 LUTs + 1 DSP (thesis §6.2)" `Quick
      (fun () ->
        Alcotest.(check int) "luts" 65
          (Twill_ir.Costmodel.queue_luts ~depth:8 ~width_bits:32);
        Alcotest.(check int) "dsps" 1 Twill_ir.Costmodel.queue_dsps);
    Alcotest.test_case "runtime primitive areas match the thesis" `Quick
      (fun () ->
        Alcotest.(check int) "hw interface" 44 Twill_ir.Costmodel.hw_interface_luts;
        Alcotest.(check int) "semaphore" 70 Twill_ir.Costmodel.semaphore_luts;
        Alcotest.(check int) "processor interface" 24
          Twill_ir.Costmodel.processor_interface_luts;
        Alcotest.(check int) "scheduler" 98 Twill_ir.Costmodel.scheduler_luts;
        Alcotest.(check int) "bus arbiter" 15 Twill_ir.Costmodel.bus_arbiter_luts;
        Alcotest.(check int) "microblaze delta (Table 6.2)" 1434
          Twill_ir.Costmodel.microblaze_luts);
    Alcotest.test_case "bigger designs cost disproportionally more" `Quick
      (fun () ->
        let open Ir in
        let small, _ = straight_line (List.init 5 (fun i -> Ir.Binop (Add, Cst (Int32.of_int i), Cst 1l))) in
        ignore small;
        let mk n =
          let f, _ =
            straight_line (List.init n (fun _ -> Ir.Load (Glob "g")))
          in
          (Area.of_schedule f (Schedule.schedule f)).Area.luts
        in
        let a1 = mk 20 and a2 = mk 200 in
        Alcotest.(check bool) "10x the loads cost more than 10x the LUTs" true
          (a2 > 10 * a1));
    Alcotest.test_case "runtime area aggregates primitives" `Quick (fun () ->
        let a =
          Area.of_runtime
            ~queues:[ (32, 8); (32, 8); (1, 8) ]
            ~nsems:2 ~n_hw_threads:3
        in
        (* 2x65 + 35 for the 1-bit queue + 2x70 sems + 3x44 ifaces + 24 + 98 + 30 *)
        Alcotest.(check int) "luts" (65 + 65 + 35 + 140 + 132 + 24 + 98 + 30)
          a.Area.luts;
        Alcotest.(check int) "dsps" (3 + 2) a.Area.dsps);
  ]

let power_tests =
  [
    Alcotest.test_case "power ordering HW < SW for small designs" `Quick
      (fun () ->
        let hw =
          Power.power ~with_microblaze:false ~mb_activity:0.0
            ~area:{ Area.luts = 5000; dsps = 4; brams = 4 }
            ~logic_activity:1.0
        in
        let sw =
          Power.power ~with_microblaze:true ~mb_activity:1.0
            ~area:Area.microblaze ~logic_activity:0.0
        in
        Alcotest.(check bool) "hw < sw" true (hw < sw));
    Alcotest.test_case "activity increases power" `Quick (fun () ->
        let p a =
          Power.power ~with_microblaze:false ~mb_activity:0.0
            ~area:{ Area.luts = 3000; dsps = 0; brams = 0 }
            ~logic_activity:a
        in
        Alcotest.(check bool) "monotone" true (p 0.2 < p 0.9));
  ]

(* property: schedules always respect dependences and resource caps *)
let prop_schedule_legality =
  QCheck.Test.make ~count:60 ~name:"schedules respect deps and caps"
    Gen_minic.arbitrary (fun src ->
      let m = Twill_minic.Minic.compile src in
      Twill_passes.Pipeline.run m;
      List.for_all
        (fun (f : Ir.func) ->
          let s = Schedule.schedule f in
          let ok = ref true in
          Ir.iter_insts f (fun i ->
              let si = max 0 s.Schedule.start_arr.(i.Ir.id) in
              if not (Ir.is_phi i) then
              List.iter
                (function
                  | Ir.Reg r when (Ir.inst f r).Ir.block = i.Ir.block && not (Ir.is_phi (Ir.inst f r)) ->
                      let sr = max 0 s.Schedule.start_arr.(r) in
                      (* a user never starts before its in-block operand *)
                      if si < sr then ok := false
                  | _ -> ())
                (Ir.operands i));
          (* peaks within caps *)
          List.iter
            (fun (cls, peak) ->
              let cap = Schedule.units Schedule.default_resources cls in
              if cap <> max_int && peak > cap then ok := false)
            s.Schedule.peak;
          !ok)
        m.Ir.funcs)

let suites =
  [
    ("hls:schedule", schedule_tests);
    ("hls:area", area_tests);
    ("hls:power", power_tests);
    ("hls:property", [ QCheck_alcotest.to_alcotest prop_schedule_legality ]);
  ]
