(* Verilog-subset simulator tests: parser and two-phase semantics on
   hand-written modules, the Chapter-4 contracts driven deterministically
   and differentially on the RTL primitives, and whole-design
   co-simulation of emitted CHStone designs against rtsim. *)

open Twill_vsim

let opts3 =
  {
    Twill.default_options with
    partition =
      { Twill.Partition.default_config with Twill.Partition.nstages = 3 };
  }

(* Parsing must fail, and the diagnostic must point at [line]. *)
let expect_parse_error ~line src =
  match Vparse.parse src with
  | exception Vparse.Parse_error (msg, l) ->
      Alcotest.(check int) (Printf.sprintf "line of %S" msg) line l
  | _ -> Alcotest.failf "malformed source accepted: %s" src

let parser_tests =
  [
    Alcotest.test_case "primitives parse" `Quick (fun () ->
        let d =
          Vparse.parse
            (String.concat "\n"
               [
                 Twill.Vruntime.queue_module; Twill.Vruntime.semaphore_module;
                 Twill.Vruntime.arbiter_module;
                 Twill.Vruntime.hw_interface_module;
                 Twill.Vruntime.scheduler_module;
               ])
        in
        Alcotest.(check int) "five modules" 5 (List.length d);
        let q = Vparse.find_module d "twill_queue" in
        Alcotest.(check bool) "has parameters" true (q.Vparse.mparams <> []));
    Alcotest.test_case "parse errors carry the line" `Quick (fun () ->
        match Vparse.parse "module m (\n  input wire clk\n);\n  assign = 3;\nendmodule" with
        | exception Vparse.Parse_error (_, line) ->
            Alcotest.(check int) "line of the bad assign" 4 line
        | _ -> Alcotest.fail "bad assign accepted");
    Alcotest.test_case "sized literals" `Quick (fun () ->
        let d =
          Vparse.parse
            "module m (output wire signed [31:0] y);\n\
            \  assign y = 32'sd-5 + 4'd12;\nendmodule"
        in
        let i = Vsim.instantiate d "m" in
        Vsim.step i;
        Alcotest.(check int) "constant fold" 7 (Vsim.peek i "y"));
    (* negative paths: every rejection must name the offending line *)
    Alcotest.test_case "malformed module header carries the line" `Quick
      (fun () ->
        expect_parse_error ~line:2 "// header\nmodule (input wire clk);\nendmodule";
        expect_parse_error ~line:2 "module m (\n  inout wire clk\n);\nendmodule");
    Alcotest.test_case "bad literals carry the line" `Quick (fun () ->
        (* unknown base, non-digits for the base, and a literal cut off
           at end of input *)
        expect_parse_error ~line:2
          "module m (output wire y);\n  assign y = 8'q7;\nendmodule";
        expect_parse_error ~line:2
          "module m (output wire y);\n  assign y = 16'hzz;\nendmodule";
        expect_parse_error ~line:2 "module m (output wire y);\n  assign y = 8'");
    Alcotest.test_case "bad range carries the line" `Quick (fun () ->
        expect_parse_error ~line:2
          "module m (\n  output wire [7:] y\n);\nendmodule";
        expect_parse_error ~line:3
          "module m (output wire y);\n  reg\n    [:0] t;\nendmodule");
  ]

let sem_tests =
  [
    Alcotest.test_case "nonblocking assignments swap" `Quick (fun () ->
        let d =
          Vparse.parse
            "module m (input wire clk, input wire rst,\n\
            \  output reg [7:0] a, output reg [7:0] b);\n\
            \  always @(posedge clk) begin\n\
            \    if (rst) begin a <= 8'd1; b <= 8'd2; end\n\
            \    else begin a <= b; b <= a; end\n\
            \  end\nendmodule"
        in
        let i = Vsim.instantiate d "m" in
        Vsim.poke i "rst" 1;
        Vsim.step i;
        Vsim.poke i "rst" 0;
        Vsim.step i;
        Alcotest.(check (pair int int)) "swapped once" (2, 1)
          (Vsim.peek i "a", Vsim.peek i "b");
        Vsim.step i;
        Alcotest.(check (pair int int)) "swapped back" (1, 2)
          (Vsim.peek i "a", Vsim.peek i "b"));
    Alcotest.test_case "signed arithmetic and shifts" `Quick (fun () ->
        let d =
          Vparse.parse
            "module m (input wire signed [31:0] x,\n\
            \  output wire signed [31:0] asr, output wire [31:0] lsr_);\n\
            \  assign asr = x >>> 4;\n\
            \  assign lsr_ = $unsigned(x) >> 4;\nendmodule"
        in
        let i = Vsim.instantiate d "m" in
        Vsim.poke i "x" (-256);
        Vsim.step i;
        Alcotest.(check int) "arithmetic shift" (-16) (Vsim.peek i "asr");
        Alcotest.(check int) "logical shift" 0x0FFFFFF0 (Vsim.peek i "lsr_"));
    Alcotest.test_case "hierarchy flattens with overrides" `Quick (fun () ->
        let d =
          Vparse.parse
            "module child #(parameter W = 4) (input wire clk,\n\
            \  input wire [W-1:0] in, output reg [W-1:0] out);\n\
            \  always @(posedge clk) out <= in + 1;\nendmodule\n\
             module parent (input wire clk, input wire [7:0] x,\n\
            \  output wire [7:0] y);\n\
            \  child #(.W(8)) c0 (.clk(clk), .in(x), .out(y));\nendmodule"
        in
        let i = Vsim.instantiate d "parent" in
        Vsim.poke i "x" 254;
        Vsim.step i;
        Alcotest.(check int) "through the port" 255 (Vsim.peek i "y");
        Alcotest.(check int) "dotted child net" 255 (Vsim.peek i "c0.out");
        Vsim.poke i "x" 255;
        Vsim.step i;
        Alcotest.(check int) "wraps at W=8" 0 (Vsim.peek i "y"));
    Alcotest.test_case "vcd dumper emits a well-formed header" `Quick (fun () ->
        let d =
          Vparse.parse
            "module m (input wire clk, output reg [3:0] n);\n\
            \  always @(posedge clk) n <= n + 1;\nendmodule"
        in
        let i = Vsim.instantiate d "m" in
        let path = Filename.temp_file "twill_vsim" ".vcd" in
        let dump = Vsim.Vcd.create i path in
        for _ = 1 to 3 do
          Vsim.step i;
          Vsim.Vcd.sample dump
        done;
        Vsim.Vcd.close dump;
        let ic = open_in path in
        let body = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Sys.remove path;
        List.iter
          (fun needle ->
            Alcotest.(check bool) needle true
              (let re = Str.regexp_string needle in
               try ignore (Str.search_forward re body 0); true
               with Not_found -> false))
          [ "$timescale"; "$var "; "$dumpvars"; "$enddefinitions" ]);
  ]

let contract_tests =
  [
    Alcotest.test_case "queue stalls the DEPTH+1 give and acks late" `Quick
      (fun () ->
        let d = Vparse.parse Twill.Vruntime.queue_module in
        let q =
          Vsim.instantiate ~overrides:[ ("WIDTH", 8); ("DEPTH", 2) ] d
            "twill_queue"
        in
        Vsim.poke q "rst" 1;
        Vsim.step q;
        Vsim.poke q "rst" 0;
        let give v =
          Vsim.poke q "give_valid" 1;
          Vsim.poke q "give_data" v;
          Vsim.step q;
          Vsim.poke q "give_valid" 0;
          Vsim.peek q "give_ack"
        in
        Alcotest.(check int) "first give acked" 1 (give 11);
        Alcotest.(check int) "second give acked" 1 (give 22);
        (* the size+1 buffer accepts a third item but withholds the ack *)
        Alcotest.(check int) "extra-slot give not acked" 0 (give 33);
        Alcotest.(check int) "occupancy counts the extra slot" 3
          (Vsim.peek q "count");
        (* the next take frees a slot and releases the pending ack *)
        Vsim.poke q "take_valid" 1;
        Vsim.step q;
        Vsim.poke q "take_valid" 0;
        Alcotest.(check int) "take acked" 1 (Vsim.peek q "take_ack");
        Alcotest.(check int) "FIFO order" 11 (Vsim.peek q "take_data");
        Alcotest.(check int) "late give_ack released" 1
          (Vsim.peek q "give_ack");
        Vsim.poke q "take_valid" 1;
        Vsim.step q;
        Alcotest.(check int) "second out" 22 (Vsim.peek q "take_data");
        Vsim.step q;
        Alcotest.(check int) "third out" 33 (Vsim.peek q "take_data");
        Vsim.poke q "take_valid" 0;
        Alcotest.(check int) "drained" 0 (Vsim.peek q "count"));
    Alcotest.test_case "semaphore lower takes two cycles" `Quick (fun () ->
        let d = Vparse.parse Twill.Vruntime.semaphore_module in
        let s =
          Vsim.instantiate
            ~overrides:[ ("MAX_COUNT", 1); ("INITIAL", 1) ]
            d "twill_semaphore"
        in
        Vsim.poke s "rst" 1;
        Vsim.step s;
        Vsim.poke s "rst" 0;
        Vsim.poke s "take_valid" 1;
        Vsim.poke s "take_count" 1;
        (* the ack is registered: not visible in the requesting cycle *)
        Alcotest.(check int) "no combinational ack" 0 (Vsim.peek s "take_ack");
        Vsim.step s;
        Alcotest.(check int) "acked after the edge" 1 (Vsim.peek s "take_ack");
        Alcotest.(check int) "count lowered" 0 (Vsim.peek s "count");
        Vsim.poke s "take_valid" 0;
        Vsim.step s;
        Alcotest.(check int) "ack is a pulse" 0 (Vsim.peek s "take_ack"));
    Alcotest.test_case "arbiter priority order" `Quick (fun () ->
        let d = Vparse.parse Twill.Vruntime.arbiter_module in
        let a = Vsim.instantiate ~overrides:[ ("N", 4) ] d "twill_bus_arbiter" in
        Vsim.poke a "rst" 1;
        Vsim.step a;
        Vsim.poke a "rst" 0;
        (* the processor always wins *)
        Vsim.poke a "request" 0b1111;
        Vsim.poke a "proc_request" 1;
        Vsim.step a;
        Alcotest.(check (pair int int)) "processor first" (0, 1)
          (Vsim.peek a "grant", Vsim.peek a "proc_grant");
        (* to-processor traffic next, lowest index *)
        Vsim.poke a "proc_request" 0;
        Vsim.poke a "to_proc" 0b1100;
        Vsim.step a;
        Alcotest.(check int) "to-proc class wins" 0b0100 (Vsim.peek a "grant");
        (* otherwise lowest requesting index *)
        Vsim.poke a "to_proc" 0;
        Vsim.step a;
        Alcotest.(check int) "index order" 0b0001 (Vsim.peek a "grant"));
  ]

let diff_tests =
  [
    Alcotest.test_case "queue differential (random traffic)" `Quick (fun () ->
        List.iter
          (fun (seed, depth) ->
            let n = Cosim.diff_queue ~seed ~depth ~ops:300 () in
            Alcotest.(check bool) "completed" true (n >= 300))
          [ (1, 1); (2, 2); (3, 8); (42, 4) ]);
    Alcotest.test_case "semaphore differential (random traffic)" `Quick
      (fun () ->
        List.iter
          (fun (seed, mx, init) ->
            ignore (Cosim.diff_semaphore ~seed ~max_count:mx ~initial:init ~ops:400 ()))
          [ (1, 1, 1); (2, 4, 0); (7, 3, 2) ]);
    Alcotest.test_case "arbiter differential (random requests)" `Quick
      (fun () ->
        List.iter
          (fun (seed, n) -> ignore (Cosim.diff_arbiter ~seed ~n ~cycles:400 ()))
          [ (1, 1); (2, 3); (5, 6) ]);
  ]

(* --- engine differential: levelized / fixpoint ---------------------------- *)

let emitted_design src =
  let m = Twill.compile ~opts:opts3 src in
  let t = Twill.extract ~opts:opts3 m in
  Vparse.parse (Twill.Vruntime.emit_design t)

let diff_all_modules ?(cycles = 200) ~seed (d : Vparse.design) =
  List.iter
    (fun (m : Vparse.modul) ->
      (* parameterized primitives get their defaults; every emitted
         module elaborates stand-alone *)
      ignore (Cosim.diff_engines ~cycles ~seed d m.Vparse.mname))
    d

let engine_tests =
  [
    Alcotest.test_case "primitives lockstep under random stimulus" `Quick
      (fun () ->
        let d =
          Vparse.parse
            (String.concat "\n"
               [
                 Twill.Vruntime.queue_module; Twill.Vruntime.semaphore_module;
                 Twill.Vruntime.arbiter_module;
               ])
        in
        List.iter
          (fun (seed, ov) ->
            ignore
              (Cosim.diff_engines ~overrides:ov ~cycles:500 ~seed d
                 "twill_queue"))
          [ (11, [ ("WIDTH", 8); ("DEPTH", 2) ]);
            (12, [ ("WIDTH", 16); ("DEPTH", 5) ]) ];
        ignore
          (Cosim.diff_engines
             ~overrides:[ ("MAX_COUNT", 3); ("INITIAL", 1) ]
             ~cycles:500 ~seed:13 d "twill_semaphore");
        ignore
          (Cosim.diff_engines ~overrides:[ ("N", 4) ] ~cycles:500 ~seed:14 d
             "twill_bus_arbiter"));
    Alcotest.test_case "random netlists lockstep (generated programs)" `Quick
      (fun () ->
        List.iter
          (fun seed ->
            let src = Gen_minic.gen (Random.State.make [| seed |]) in
            match emitted_design src with
            | d -> diff_all_modules ~cycles:120 ~seed d
            | exception _ ->
                (* a generated program the pipeline rejects is not an
                   engine question; skip it *)
                ())
          [ 101; 202; 303 ]);
    Alcotest.test_case "handles agree with the string API" `Quick (fun () ->
        let d =
          Vparse.parse
            "module m (input wire clk, input wire [7:0] x,\n\
            \  output reg [7:0] y);\n\
            \  always @(posedge clk) y <= x + 1;\nendmodule"
        in
        let i = Vsim.instantiate d "m" in
        let hx = Vsim.handle i "x" and hy = Vsim.handle i "y" in
        Vsim.poke_h i hx 41;
        Vsim.step i;
        Alcotest.(check int) "peek_h" 42 (Vsim.peek_h i hy);
        Alcotest.(check int) "peek" 42 (Vsim.peek i "y"));
    Alcotest.test_case "whole-design cosim identical under both engines"
      `Quick (fun () ->
        let src =
          "int main() { int acc = 0; for (int i = 0; i < 80; i++) { int a = \
           (i * 2654435761) >> 3; acc += (a ^ i) >> 2; } return acc; }"
        in
        let m = Twill.compile ~opts:opts3 src in
        let t = Twill.extract ~opts:opts3 m in
        let rd = Twill.cosim ~opts:opts3 t in
        let rf = Twill.cosim ~opts:opts3 ~engine:Vsim.Fixpoint t in
        Alcotest.(check string) "default is levelized" "levelized"
          rd.Cosim.rtl_engine;
        Alcotest.(check string) "fixpoint ran" "fixpoint" rf.Cosim.rtl_engine;
        Alcotest.(check int32) "same return" rd.Cosim.rtl_ret rf.Cosim.rtl_ret;
        Alcotest.(check int) "same cycle count" rd.Cosim.rtl_cycles
          rf.Cosim.rtl_cycles;
        Alcotest.(check bool) "default agrees with rtsim" true rd.Cosim.agree;
        Alcotest.(check bool) "fixpoint agrees with rtsim" true rf.Cosim.agree);
    Alcotest.test_case "combinational cycle falls back to fixpoint" `Quick
      (fun () ->
        let d =
          Vparse.parse
            "module m (input wire x, output wire a);\n\
            \  wire b;\n\
            \  assign a = ~b;\n\
            \  assign b = a & x;\nendmodule"
        in
        (* the default and the explicit levelized engine both fall back to
           the fixpoint oracle, visibly via engine_of, and the fallback
           still detects the oscillation at runtime *)
        List.iter
          (fun (what, i) ->
            Alcotest.(check bool) (what ^ " fell back") true
              (Vsim.engine_of i = Vsim.Fixpoint);
            Vsim.poke i "x" 1;
            match Vsim.step i with
            | exception Vsim.Sim_error _ -> ()
            | () -> Alcotest.fail (what ^ ": oscillating loop settled"))
          [
            ("default", Vsim.instantiate d "m");
            ("levelized", Vsim.instantiate ~engine:Vsim.Levelized d "m");
          ]);
  ]

let chstone_engine_tests =
  List.map
    (fun name ->
      Alcotest.test_case ("chstone engines lockstep " ^ name) `Slow (fun () ->
          let b = Twill_chstone.Chstone.find name in
          let d = emitted_design b.Twill_chstone.Chstone.source in
          diff_all_modules ~cycles:150 ~seed:7 d))
    [ "mips"; "adpcm"; "aes"; "blowfish"; "gsm"; "jpeg"; "motion"; "sha" ]

let cosim_small src =
  let m = Twill.compile ~opts:opts3 src in
  let t = Twill.extract ~opts:opts3 m in
  Twill.cosim ~opts:opts3 t

let cosim_tests =
  [
    Alcotest.test_case "small pipeline agrees with rtsim" `Quick (fun () ->
        let r =
          cosim_small
            "int main() { int acc = 0; for (int i = 0; i < 200; i++) { int a \
             = (i * 2654435761) >> 3; int b = (a ^ i) * 5; acc += b >> 2; } \
             return acc; }"
        in
        Alcotest.(check bool) "agree" true r.Cosim.agree;
        Alcotest.(check bool) "clock advanced" true (r.Cosim.rtl_cycles > 0));
    Alcotest.test_case "prints cross the RTL boundary" `Quick (fun () ->
        let r =
          cosim_small
            "int main() { int s = 0; for (int i = 0; i < 40; i++) { int v = i \
             * 17; s += v >> 1; } print(s); return s; }"
        in
        Alcotest.(check bool) "agree" true r.Cosim.agree;
        Alcotest.(check int) "one print" 1 (List.length r.Cosim.rtl_prints));
    Alcotest.test_case "sub-FSM calls co-simulate" `Quick (fun () ->
        (* two call sites keep the helper out-of-line at threshold 0 *)
        let opts = { opts3 with Twill.inline_threshold = 0 } in
        let m =
          Twill.compile ~opts
            "int helper(int x) { int s = 0; for (int i = 0; i < 4; i++) s += \
             x * i; return s; }\n\
             int main() { int acc = 0; for (int i = 0; i < 60; i++) { int a = \
             helper(i); int b = helper(a ^ 5); acc += a + b; } return acc; }"
        in
        let t = Twill.extract ~opts m in
        let design = Twill.Vruntime.emit_design t in
        let hw_calls =
          Array.exists
            (fun s ->
              t.Twill.Dswp.roles.(s) = Twill.Partition.Hw
              && Twill.Dswp.callees_of
                   (Twill.Ir.find_func t.Twill.Dswp.modul
                      t.Twill.Dswp.stages.(s))
                 <> [])
            (Array.init (Array.length t.Twill.Dswp.stages) Fun.id)
        in
        if hw_calls then begin
          Alcotest.(check bool) "callee module emitted" true
            (let re = Str.regexp_string "module twill_thread_helper" in
             try ignore (Str.search_forward re design 0); true
             with Not_found -> false)
        end;
        let r = Twill.cosim ~opts t in
        Alcotest.(check bool) "agree" true r.Cosim.agree);
    Alcotest.test_case "non-boolean branch condition crosses full width"
      `Quick (fun () ->
        (* fuzz-found (seed 11, case 9): the loop counter itself is the
           branch condition, so the forwarded cond channel carries a
           full integer; a 1-bit cond queue truncated w4=2 to 0 and
           executed the dead print exactly once in RTL *)
        let r =
          cosim_small
            "int main() { int w4 = 0; while (w4 < 3) { w4 = w4 + 1; if (w4) \
             continue; print(0); } }"
        in
        Alcotest.(check bool) "agree" true r.Cosim.agree;
        Alcotest.(check int) "dead print stays dead" 0
          (List.length r.Cosim.rtl_prints));
    Alcotest.test_case "twill_system elaborates" `Quick (fun () ->
        let m =
          Twill.compile ~opts:opts3
            "int main() { int acc = 0; for (int i = 0; i < 30; i++) acc += i \
             * i; return acc; }"
        in
        let t = Twill.extract ~opts:opts3 m in
        let d = Vparse.parse (Twill.Vruntime.emit_design t) in
        let sys = Vsim.instantiate d "twill_system" in
        Vsim.poke sys "rst" 1;
        Vsim.step sys;
        Vsim.poke sys "rst" 0;
        for _ = 1 to 10 do Vsim.step sys done;
        (* undriven interconnect reads 0; the threads are held in reset
           idle because nothing drives start *)
        Alcotest.(check int) "undriven done" 0 (Vsim.peek sys "done");
        Alcotest.(check int) "retval tied off" 0 (Vsim.peek sys "retval"));
  ]

let chstone_cosim_tests =
  List.map
    (fun name ->
      Alcotest.test_case ("chstone cosim " ^ name) `Slow (fun () ->
          let b = Twill_chstone.Chstone.find name in
          let r = cosim_small b.Twill_chstone.Chstone.source in
          Alcotest.(check bool) (name ^ " agrees") true r.Cosim.agree;
          (match b.Twill_chstone.Chstone.expected with
          | Some e ->
              Alcotest.(check bool) "checksum" true (Int32.equal e r.Cosim.rtl_ret)
          | None -> ())))
    [ "sha"; "adpcm" ]

let suites =
  [
    ("vsim:parser", parser_tests);
    ("vsim:semantics", sem_tests);
    ("vsim:contracts", contract_tests);
    ("vsim:differential", diff_tests);
    ("vsim:engines", engine_tests @ chstone_engine_tests);
    ("vsim:cosim", cosim_tests);
    ("vsim:chstone", chstone_cosim_tests);
  ]
