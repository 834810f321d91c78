(* DSWP tests: partition invariants, thread-extraction structure, and the
   headline end-to-end soundness property — the partitioned pipeline of
   any program, run on rtsim with its bounded queues, observably equals
   its sequential execution. *)

open Twill_ir
open Twill_passes
open Twill_dswp
module Pdg = Twill_pdg.Pdg

let check_i32 = Alcotest.testable (fun ppf v -> Fmt.pf ppf "%ld" v) Int32.equal

let opts = { Pipeline.default with check = true }

let compile_and_partition ?(config = Partition.default_config) src =
  let m = Twill_minic.Minic.compile src in
  Pipeline.run ~opts m;
  Dswp.run ~config m

let assert_parallel_matches ?config src =
  let r0 = Twill_minic.Minic.run_reference ~fuel:20_000_000 src in
  let t = compile_and_partition ?config src in
  let r1 = (Twill.run_twill_threaded t).Twill.scenario in
  Alcotest.(check check_i32) "ret" r0.ret r1.Twill.ret;
  Alcotest.(check (list check_i32)) "prints" r0.prints r1.Twill.prints;
  t

let sound name ?config src =
  Alcotest.test_case name `Quick (fun () ->
      ignore (assert_parallel_matches ?config src))

(* Pipelineable kernels: a producer-style computation feeding consumers. *)
let corpus =
  [
    ( "scalar pipeline",
      "int main() { int acc = 0; for (int i = 0; i < 100; i++) { int a = i * \
       3 + 1; int b = a * a - i; int c = (b >> 2) ^ a; acc += c; } return \
       acc; }" );
    ( "array staged computation",
      "int src[16] = {3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3};\n\
       int mid[16];\nint dst[16];\n\
       int main() { for (int i = 0; i < 16; i++) mid[i] = src[i] * src[i]; \
       for (int i = 0; i < 16; i++) dst[i] = mid[i] + (mid[(i + 1) & 15] >> \
       1); int s = 0; for (int i = 0; i < 16; i++) s += dst[i]; return s; }" );
    ( "conditional work",
      "int main() { int odd = 0; int even = 0; for (int i = 0; i < 200; i++) \
       { int v = (i * 2654435761) >> 7; if (v & 1) odd += v & 0xff; else \
       even += v & 0xff; } return odd * 1000 + even; }" );
    ( "reduction with prints",
      "int main() { int s = 0; for (int i = 0; i < 20; i++) { s += i * i; if \
       (i % 5 == 0) print(s); } return s; }" );
    ( "while loop state machine",
      "int main() { uint x = 0xdeadbeef; int n = 0; while (x != 1 && n < \
       500) { if (x & 1) x = x * 3 + 1; else x = x >> 1; n++; } return n; }" );
    ( "non-inlined helper",
      "int tbl[8] = {1,2,4,8,16,32,64,128};\n\
       int weight(int v) { int s = 0; for (int b = 0; b < 8; b++) { if (v & \
       tbl[b]) s++; s ^= (s << 2); s += b * 3; s ^= (s >> 1); s += v & 7; s \
       ^= 0x55; s -= b; s ^= (v >> b) & 1; s += 2; s ^= s >> 3; s += 1; s \
       ^= 0x21; s += b ^ v; } return s & 0xff; }\n\
       int main() { int acc = 0; for (int i = 0; i < 40; i++) acc += \
       weight(i * 37); return acc; }" );
    ( "two-phase crypto-ish",
      "uint state[4] = {0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476};\n\
       int main() { for (int r = 0; r < 64; r++) { uint a = state[0]; uint b \
       = state[1]; uint c = state[2]; uint d = state[3]; uint f = (b & c) | \
       (~b & d); uint t = a + f + r * 0x5a827999; state[0] = d; state[1] = \
       ((t << 5) | (t >> 27)) + b; state[2] = b; state[3] = c; } return \
       (int)(state[0] ^ state[1] ^ state[2] ^ state[3]); }" );
  ]

let corpus_tests = List.map (fun (n, s) -> sound n s) corpus

(* also exercise different stage counts and split targets *)
let config_tests =
  List.concat_map
    (fun (nstages, frac) ->
      let config = { Partition.default_config with Partition.nstages; sw_fraction = frac } in
      List.map
        (fun (n, s) ->
          sound (Printf.sprintf "%s [k=%d sw=%.2f]" n nstages frac) ~config s)
        [ List.nth corpus 0; List.nth corpus 1; List.nth corpus 6 ])
    [ (1, 1.0); (2, 0.5); (3, 0.25); (6, 0.1); (8, 0.9) ]

(* --- structural invariants ---------------------------------------------- *)

let structure_tests =
  [
    Alcotest.test_case "forward-only pipeline flow" `Quick (fun () ->
        let t = compile_and_partition (snd (List.nth corpus 1)) in
        (* data queues must flow forward; cond/token queues too, given the
           broadcast closure puts conditions at stage 0 *)
        Array.iter
          (fun (q : Threadgen.queue_info) ->
            if q.Threadgen.purpose = "data" || q.Threadgen.purpose = "cond" then
              Alcotest.(check bool)
                (Printf.sprintf "queue %d forward (%d->%d)" q.Threadgen.qid
                   q.Threadgen.src_stage q.Threadgen.dst_stage)
                true
                (q.Threadgen.src_stage <= q.Threadgen.dst_stage))
          t.Dswp.queues);
    Alcotest.test_case "cond channel width follows its payload" `Quick
      (fun () ->
        (* fuzz-found (seed 11, case 9): a branch condition that is a
           raw integer rather than a comparison result must cross a
           full-width queue — a 1-bit cond channel truncates even
           values to 0 and flips the branch in RTL *)
        let t =
          compile_and_partition
            "int main() { int w4 = 0; while (w4 < 3) { w4 = w4 + 1; if (w4) \
             continue; print(0); } }"
        in
        let conds =
          Array.to_list t.Dswp.queues
          |> List.filter (fun (q : Threadgen.queue_info) ->
                 q.Threadgen.purpose = "cond")
        in
        Alcotest.(check bool) "split produced cond channels" true (conds <> []);
        Alcotest.(check bool) "non-boolean cond crosses full width" true
          (List.exists
             (fun (q : Threadgen.queue_info) -> q.Threadgen.width_bits = 32)
             conds));
    Alcotest.test_case "channels never loop back to their source" `Quick
      (fun () ->
        let t = compile_and_partition (snd (List.nth corpus 2)) in
        Array.iter
          (fun (q : Threadgen.queue_info) ->
            Alcotest.(check bool) "src <> dst" true
              (q.Threadgen.src_stage <> q.Threadgen.dst_stage))
          t.Dswp.queues);
    Alcotest.test_case "stages keep only relevant blocks" `Quick (fun () ->
        let src = snd (List.nth corpus 2) in
        let m = Twill_minic.Minic.compile src in
        Pipeline.run ~opts m;
        let nblocks = Twill_ir.Vec.length (Ir.find_func m "main").Ir.blocks in
        let t = Dswp.run m in
        Array.iter
          (fun name ->
            let f = Ir.find_func t.Dswp.modul name in
            (* pruning may add at most a synthetic exit block *)
            Alcotest.(check bool)
              (name ^ " block count bounded") true
              (Twill_ir.Vec.length f.Ir.blocks <= nblocks + 1))
          t.Dswp.stages;
        (* at least one stage should be strictly pruned for this kernel *)
        let pruned =
          Array.exists
            (fun name ->
              Twill_ir.Vec.length (Ir.find_func t.Dswp.modul name).Ir.blocks
              < nblocks)
            t.Dswp.stages
        in
        Alcotest.(check bool) "some stage is pruned" true pruned);
    Alcotest.test_case "instructions are placed exactly once" `Quick (fun () ->
        let src = snd (List.nth corpus 0) in
        let m = Twill_minic.Minic.compile src in
        Pipeline.run ~opts m;
        let n_orig = Ir.num_live_insts (Ir.find_func m "main") in
        let t = Dswp.run m in
        let placed =
          Array.fold_left
            (fun acc name ->
              let f = Ir.find_func t.Dswp.modul name in
              Ir.fold_insts f
                (fun c (i : Ir.inst) ->
                  match i.Ir.kind with
                  | Ir.Produce _ | Ir.Consume _ | Ir.Sem_give _ | Ir.Sem_take _
                    ->
                      c
                  | _ -> c + 1)
                acc)
            0 t.Dswp.stages
        in
        Alcotest.(check int) "live instruction count preserved" n_orig placed);
    Alcotest.test_case "semaphores guard shared callees" `Quick (fun () ->
        (* two pipeline stages calling the same scratch-heavy helper *)
        let src =
          "int scratch(int seed) { int buf[16]; for (int i = 0; i < 16; i++) \
           buf[i] = seed ^ (i * 7); int s = 0; for (int i = 0; i < 16; i++) \
           { s += buf[i] * buf[(i + 3) & 15]; s ^= s >> 4; s += i; s ^= s << \
           1; s += buf[i] & 3; s ^= 0x99; s += seed & 15; s ^= i * 5; s += \
           1; } return s; }\n\
           int main() { int a = 0; int b = 0; for (int i = 0; i < 10; i++) { \
           a += scratch(i); b ^= scratch(i + 100); } return a ^ b; }"
        in
        let t = assert_parallel_matches src in
        Alcotest.(check bool)
          "uses semaphores when a callee is shared" true
          (t.Dswp.nsems >= 0));
  ]

(* --- the headline property ---------------------------------------------- *)

let prop_dswp_sound =
  QCheck.Test.make ~count:80
    ~name:"DSWP parallel execution == sequential semantics"
    Gen_minic.arbitrary (fun src ->
      match Twill_minic.Minic.run_reference ~fuel:3_000_000 src with
      | exception Twill_minic.Ast_interp.Out_of_fuel -> QCheck.assume_fail ()
      | r0 -> (
          let m = Twill_minic.Minic.compile src in
          Pipeline.run ~opts:Pipeline.default m;
          let t = Dswp.run m in
          match (Twill.run_twill_threaded t).Twill.scenario with
          | r1 -> r0.ret = r1.Twill.ret && r0.prints = r1.Twill.prints
          | exception Twill.Sim.Deadlock msg ->
              QCheck.Test.fail_report ("deadlock: " ^ msg)))

let prop_dswp_sound_varied_stages =
  QCheck.Test.make ~count:40
    ~name:"DSWP sound for random stage counts and split points"
    QCheck.(pair Gen_minic.arbitrary (pair (int_range 1 8) (int_range 1 9)))
    (fun (src, (nstages, frac10)) ->
      match Twill_minic.Minic.run_reference ~fuel:2_000_000 src with
      | exception Twill_minic.Ast_interp.Out_of_fuel -> QCheck.assume_fail ()
      | r0 -> (
          let m = Twill_minic.Minic.compile src in
          Pipeline.run ~opts:Pipeline.default m;
          let config =
            { Partition.default_config with Partition.nstages; sw_fraction = float_of_int frac10 /. 10.0 }
          in
          let t = Dswp.run ~config m in
          match (Twill.run_twill_threaded t).Twill.scenario with
          | r1 -> r0.ret = r1.Twill.ret && r0.prints = r1.Twill.prints
          | exception Twill.Sim.Deadlock msg ->
              QCheck.Test.fail_report ("deadlock: " ^ msg)))

let property_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_dswp_sound; prop_dswp_sound_varied_stages ]

let suites =
  [
    ("dswp:corpus", corpus_tests);
    ("dswp:configs", config_tests);
    ("dswp:structure", structure_tests);
    ("dswp:property", property_tests);
  ]
