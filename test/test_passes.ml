(* Optimisation-pass tests: structural unit tests for the analyses plus
   differential tests (reference interpreter vs optimised IR) over both a
   fixed corpus and randomly generated programs. *)

open Twill_ir
open Twill_passes
module Vec = Twill_ir.Vec

let check_i32 = Alcotest.testable (fun ppf v -> Fmt.pf ppf "%ld" v) Int32.equal

let opts = { Pipeline.default with check = true }

let compile_opt src =
  let m = Twill_minic.Minic.compile src in
  Pipeline.run ~opts m;
  m

(* --- differential corpus ---------------------------------------------- *)

let corpus : (string * string) list =
  [
    ( "gcd loop",
      "int main() { int a = 252; int b = 105; while (b != 0) { int t = a % \
       b; a = b; b = t; } return a; }" );
    ( "sieve",
      "int main() { int is[64]; int count = 0; for (int i = 2; i < 64; i++) \
       is[i] = 1; for (int i = 2; i < 64; i++) { if (is[i]) { count++; for \
       (int j = i + i; j < 64; j += i) is[j] = 0; } } return count; }" );
    ( "matrix multiply",
      "int a[3][3] = {{1,2,3},{4,5,6},{7,8,9}};\n\
       int b[3][3] = {{9,8,7},{6,5,4},{3,2,1}};\n\
       int c[3][3];\n\
       int main() { for (int i = 0; i < 3; i++) for (int j = 0; j < 3; j++) \
       { int s = 0; for (int k = 0; k < 3; k++) s += a[i][k] * b[k][j]; \
       c[i][j] = s; } int t = 0; for (int i = 0; i < 3; i++) t += c[i][i]; \
       return t; }" );
    ( "function pipeline",
      "int scale(int x, int k) { return x * k; }\n\
       int clamp(int x, int lo, int hi) { if (x < lo) return lo; if (x > hi) \
       return hi; return x; }\n\
       int main() { int acc = 0; for (int i = -10; i < 10; i++) acc += \
       clamp(scale(i, 3), -12, 12); return acc; }" );
    ( "unsigned hashing",
      "uint h = 2166136261;\n\
       void feed(int b) { h = (h ^ b) * 16777619; }\n\
       int main() { for (int i = 0; i < 40; i++) feed(i * 7 + 3); return \
       (int)(h % 100000); }" );
    ( "nested conditions",
      "int main() { int acc = 0; for (int i = 0; i < 50; i++) { if (i % 3 == \
       0) { if (i % 5 == 0) acc += 100; else acc += 1; } else if (i % 5 == \
       0) acc += 10; else acc -= 1; print(acc); } return acc; }" );
    ( "do-while with breaks",
      "int main() { int i = 0; int s = 0; do { i++; if (i == 7) continue; if \
       (i > 20) break; s += i; } while (1); return s; }" );
    ( "global array state machine",
      "int tape[32];\nint pos = 0;\n\
       void step(int cmd) { if (cmd == 0) pos = (pos + 1) & 31; else if (cmd \
       == 1) tape[pos] += 1; else tape[pos] ^= 5; }\n\
       int main() { for (int i = 0; i < 200; i++) step(i % 3); int s = 0; \
       for (int i = 0; i < 32; i++) s += tape[i]; return s * 100 + pos; }" );
  ]

let differential_tests =
  List.map
    (fun (name, src) ->
      Alcotest.test_case name `Quick (fun () ->
          let r0 = Twill_minic.Minic.run_reference ~fuel:20_000_000 src in
          let m = compile_opt src in
          let r1 = Interp.run ~fuel:20_000_000 m in
          Alcotest.(check check_i32) "ret" r0.ret r1.ret;
          Alcotest.(check (list check_i32)) "prints" r0.prints r1.prints))
    corpus

(* --- structural tests --------------------------------------------------- *)

(* Hand-built diamond CFG: 0 -> 1,2 -> 3. *)
let diamond () =
  let open Ir in
  let f = create_func ~name:"main" ~nparams:0 in
  let b0 = add_block f and b1 = add_block f and b2 = add_block f in
  let b3 = add_block f in
  f.entry <- b0.bid;
  b0.term <- Cond_br (Cst 1l, b1.bid, b2.bid);
  b1.term <- Br b3.bid;
  b2.term <- Br b3.bid;
  b3.term <- Ret (Some (Cst 0l));
  recompute_cfg f;
  f

(* 0 -> 1 <-> 2, 1 -> 3 : a loop between 1 and 2. *)
let looped () =
  let open Ir in
  let f = create_func ~name:"main" ~nparams:0 in
  let b0 = add_block f and b1 = add_block f and b2 = add_block f in
  let b3 = add_block f in
  f.entry <- b0.bid;
  b0.term <- Br b1.bid;
  b1.term <- Cond_br (Cst 1l, b2.bid, b3.bid);
  b2.term <- Br b1.bid;
  b3.term <- Ret (Some (Cst 0l));
  recompute_cfg f;
  f

let dom_tests =
  [
    Alcotest.test_case "diamond dominators" `Quick (fun () ->
        let f = diamond () in
        let d = Dom.dominators f in
        Alcotest.(check bool) "0 dom 3" true (Dom.dominates d 0 3);
        Alcotest.(check bool) "1 !dom 3" false (Dom.dominates d 1 3);
        Alcotest.(check bool) "2 !dom 3" false (Dom.dominates d 2 3);
        Alcotest.(check bool) "reflexive" true (Dom.dominates d 3 3);
        Alcotest.(check int) "idom(3) = 0" 0 d.Dom.idom.(3));
    Alcotest.test_case "diamond postdominators" `Quick (fun () ->
        let f = diamond () in
        let pd = Dom.post_dominators f in
        (* 3 post-dominates everything *)
        Alcotest.(check bool) "3 pdom 0" true (Dom.dominates pd 3 0);
        Alcotest.(check bool) "3 pdom 1" true (Dom.dominates pd 3 1);
        Alcotest.(check bool) "1 !pdom 0" false (Dom.dominates pd 1 0));
    Alcotest.test_case "diamond frontier" `Quick (fun () ->
        let f = diamond () in
        let d = Dom.dominators f in
        let df = Dom.frontiers d ~preds:(fun b -> (Ir.block f b).preds) in
        Alcotest.(check (list int)) "df(1)" [ 3 ] df.(1);
        Alcotest.(check (list int)) "df(2)" [ 3 ] df.(2);
        Alcotest.(check (list int)) "df(0)" [] df.(0));
    Alcotest.test_case "loop detection" `Quick (fun () ->
        let f = looped () in
        let forest = Loops.analyze f in
        Alcotest.(check int) "one loop" 1 (Array.length forest.Loops.loops);
        let l = forest.Loops.loops.(0) in
        Alcotest.(check int) "header" 1 l.Loops.header;
        Alcotest.(check (list int)) "body" [ 1; 2 ] (List.sort compare l.Loops.body);
        Alcotest.(check int) "depth" 1 l.Loops.depth);
    Alcotest.test_case "preheader insertion" `Quick (fun () ->
        let f = looped () in
        ignore (Loops.ensure_preheaders f);
        let forest = Loops.analyze f in
        let l = forest.Loops.loops.(0) in
        match Loops.preheader f l with
        | Some _ -> ()
        | None -> Alcotest.fail "no preheader after ensure_preheaders");
  ]

let loop_nest_src =
  "int main() { int s = 0; for (int i = 0; i < 4; i++) { s += 1; for (int j \
   = 0; j < 4; j++) { s += 2; for (int k = 0; k < 2; k++) s += 3; } while (s \
   % 7 != 0) s++; } return s; }"

let loop_forest_tests =
  [
    Alcotest.test_case "nest depths" `Quick (fun () ->
        let m = compile_opt loop_nest_src in
        let f = Ir.find_func m "main" in
        let forest = Loops.analyze f in
        let depths =
          Array.to_list forest.Loops.loops
          |> List.map (fun l -> l.Loops.depth)
          |> List.sort compare
        in
        Alcotest.(check (list int)) "depths" [ 1; 2; 2; 3 ] depths);
  ]

(* --- pass-specific behaviours ------------------------------------------ *)

let count_kind m fname p =
  let f = Ir.find_func m fname in
  Ir.fold_insts f (fun n i -> if p i.Ir.kind then n + 1 else n) 0

let pass_tests =
  [
    Alcotest.test_case "mem2reg promotes scalars" `Quick (fun () ->
        let m = compile_opt "int main() { int s = 0; for (int i = 0; i < 10; i++) s += i; return s; }" in
        let allocas = count_kind m "main" (function Ir.Alloca _ -> true | _ -> false) in
        Alcotest.(check int) "no allocas remain" 0 allocas);
    Alcotest.test_case "arrays are not promoted" `Quick (fun () ->
        let m = compile_opt "int main() { int a[4]; a[1] = 2; return a[1]; }" in
        let allocas = count_kind m "main" (function Ir.Alloca _ -> true | _ -> false) in
        Alcotest.(check int) "array alloca remains" 1 allocas);
    Alcotest.test_case "constant folding collapses straight-line code" `Quick
      (fun () ->
        let m = compile_opt "int main() { int a = 3 * 4; int b = a + 5; return b << 1; }" in
        let f = Ir.find_func m "main" in
        Alcotest.(check int) "no instructions needed" 0 (Ir.num_live_insts f);
        let r = Interp.run m in
        Alcotest.(check check_i32) "value" 34l r.Interp.ret);
    Alcotest.test_case "branch folding removes dead arm" `Quick (fun () ->
        let m = compile_opt "int main() { if (1 > 2) return 111; return 7; }" in
        let f = Ir.find_func m "main" in
        Alcotest.(check int) "single block" 1 (Vec.length f.Ir.blocks));
    Alcotest.test_case "inliner inlines small callees" `Quick (fun () ->
        let m =
          compile_opt
            "int sq(int x) { return x * x; }\nint main() { return sq(5) + sq(6); }"
        in
        let calls = count_kind m "main" (function Ir.Call _ -> true | _ -> false) in
        Alcotest.(check int) "no calls remain" 0 calls;
        Alcotest.(check check_i32) "value" 61l (Interp.run m).Interp.ret);
    Alcotest.test_case "pure unused call is dropped" `Quick (fun () ->
        let big_pure =
          "int noise(int x) { int s = 0; for (int i = 0; i < 10; i++) { s ^= \
           (x * i) & 0xabc; s += (s << 1) ^ i; s ^= (s >> 3); s += x; s ^= \
           0x5a5a; s -= i * 3; s ^= (s << 2); s += 13; s ^= x * 5; s += (i \
           << 4); s ^= 0x123; s += s >> 1; s ^= 77; s += 1; } return s; }\n\
           int main() { noise(4); return 3; }"
        in
        let m = Twill_minic.Minic.compile big_pure in
        Pipeline.run ~opts:{ opts with inline_threshold = 4 } m;
        let calls = count_kind m "main" (function Ir.Call _ -> true | _ -> false) in
        Alcotest.(check int) "call removed" 0 calls);
    Alcotest.test_case "aggressive inlining flattens call tree" `Quick (fun () ->
        let src =
          "int f1(int x) { int s = 0; for (int i = 0; i < 20; i++) s += x ^ \
           i; return s; }\n\
           int f2(int x) { return f1(x) + f1(x + 1); }\n\
           int main() { return f2(3); }"
        in
        let m = Twill_minic.Minic.compile src in
        Pipeline.run ~opts:{ opts with inline_aggressive = true } m;
        Alcotest.(check int) "one function left" 1 (List.length m.Ir.funcs);
        let r0 = Twill_minic.Minic.run_reference src in
        Alcotest.(check check_i32) "semantics kept" r0.ret (Interp.run m).Interp.ret);
    Alcotest.test_case "globals-to-args leaves globals only in main" `Quick
      (fun () ->
        let src =
          "int g = 5;\nint tab[4] = {1,2,3,4};\n\
           int use(int i) { g += tab[i & 3]; return g; }\n\
           int grow(int n) { int s = 0; for (int i = 0; i < n; i++) s += \
           use(i); return s; }\n\
           int main() { return grow(9); }"
        in
        let m = Twill_minic.Minic.compile src in
        Pipeline.run ~opts:{ opts with inline_threshold = 0 } m;
        List.iter
          (fun (f : Ir.func) ->
            if f.Ir.name <> "main" then begin
              let uses_glob = ref false in
              Ir.iter_insts f (fun i ->
                  List.iter
                    (function Ir.Glob _ -> uses_glob := true | _ -> ())
                    (Ir.operands i));
              Alcotest.(check bool)
                (f.Ir.name ^ " has no global refs")
                false !uses_glob
            end)
          m.Ir.funcs;
        let r0 = Twill_minic.Minic.run_reference src in
        Alcotest.(check check_i32) "semantics kept" r0.ret (Interp.run m).Interp.ret);
    (* Shrunk from blowfish with its round loop's [i < 16] edited to [16]:
       once [spin] is inlined, [outer]'s latch sits behind a loop with no
       exit, and its header phi names that unreachable latch.  Inlining
       [outer] into [main] used to fail with "use before def in copy".
       With [g = 0] the loop is never entered and the program ends; with
       [g = 1] it spins, and both sides run out of the same fuel. *)
    Alcotest.test_case "inliner copies code behind an exit-less loop" `Quick
      (fun () ->
        let src g =
          Printf.sprintf
            "int g = %d;\n\
             void spin() { for (int i = 0; 16; i++) { } }\n\
             void outer(int n) { for (int i = 0; i < n; i += 2) spin(); }\n\
             int main() { outer(g); print(7); return 3; }"
            g
        in
        let r0 = Twill_minic.Minic.run_reference ~fuel:100_000 (src 0) in
        let r = Interp.run ~fuel:100_000 (compile_opt (src 0)) in
        Alcotest.(check check_i32) "ret" r0.ret r.Interp.ret;
        Alcotest.(check (list check_i32)) "prints" r0.prints r.Interp.prints;
        let m = compile_opt (src 1) in
        Alcotest.check_raises "reference spins" Twill_minic.Ast_interp.Out_of_fuel
          (fun () -> ignore (Twill_minic.Minic.run_reference ~fuel:100_000 (src 1)));
        Alcotest.check_raises "compiled code spins" Interp.Out_of_fuel (fun () ->
            ignore (Interp.run ~fuel:100_000 m)));
  ]

(* --- property tests ----------------------------------------------------- *)

let prop_random_program_optimisation_sound =
  QCheck.Test.make ~count:120 ~name:"optimised IR == reference semantics"
    Gen_minic.arbitrary (fun src ->
      match Twill_minic.Minic.run_reference ~fuel:3_000_000 src with
      | exception Twill_minic.Ast_interp.Out_of_fuel -> QCheck.assume_fail ()
      | r0 ->
          let m = Twill_minic.Minic.compile src in
          let r1 = Interp.run ~fuel:30_000_000 m in
          let m2 = compile_opt src in
          let r2 = Interp.run ~fuel:30_000_000 m2 in
          r0.ret = r1.Interp.ret && r0.prints = r1.Interp.prints
          && r0.ret = r2.Interp.ret && r0.prints = r2.Interp.prints)

let prop_dominator_properties =
  QCheck.Test.make ~count:100 ~name:"dominator tree laws on random programs"
    Gen_minic.arbitrary (fun src ->
      let m = compile_opt src in
      List.for_all
        (fun (f : Ir.func) ->
          let d = Dom.dominators f in
          let n = Vec.length f.Ir.blocks in
          let ok = ref true in
          for b = 0 to n - 1 do
            if Dom.is_reachable d b then begin
              (* entry dominates everything reachable *)
              if not (Dom.dominates d f.Ir.entry b) then ok := false;
              (* idom strictly dominates (except entry) *)
              if b <> f.Ir.entry then begin
                let id = d.Dom.idom.(b) in
                if not (Dom.strictly_dominates d id b) then ok := false
              end
            end
          done;
          !ok)
        m.Ir.funcs)

let prop_ssa_after_pipeline =
  QCheck.Test.make ~count:100 ~name:"pipeline output is valid SSA"
    Gen_minic.arbitrary (fun src ->
      let m = compile_opt src in
      match Ssa_check.check_modul m with
      | () -> true
      | exception Ssa_check.Invalid msg -> QCheck.Test.fail_report msg)

let property_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_random_program_optimisation_sound;
      prop_dominator_properties;
      prop_ssa_after_pipeline;
    ]

(* --- GVN and LICM ------------------------------------------------------- *)

let assert_agree_src src expect =
  let r0 = Twill_minic.Minic.run_reference src in
  let m = compile_opt src in
  let r1 = Interp.run m in
  Alcotest.(check check_i32) "ref vs opt" r0.ret r1.Interp.ret;
  Alcotest.(check check_i32) "expected" expect r1.Interp.ret

let gvn_licm_tests =
  [
    Alcotest.test_case "gvn merges identical expressions" `Quick (fun () ->
        let m =
          compile_opt
            "int main() { int x = 11; int a = x * x + 3; int b = x * x + 3; \
             print(a); print(b); return a + b; }"
        in
        let f = Ir.find_func m "main" in
        let muls =
          Ir.fold_insts f
            (fun n (i : Ir.inst) ->
              match i.Ir.kind with Ir.Binop (Ir.Mul, _, _) -> n + 1 | _ -> n)
            0
        in
        Alcotest.(check bool) "single multiply" true (muls <= 1));
    Alcotest.test_case "block-local load CSE" `Quick (fun () ->
        let m =
          compile_opt
            "int g[4] = {9, 8, 7, 6};\n\
             int main() { int a = g[2]; int b = g[2]; return a + b; }"
        in
        let f = Ir.find_func m "main" in
        let loads =
          Ir.fold_insts f
            (fun n (i : Ir.inst) ->
              match i.Ir.kind with Ir.Load _ -> n + 1 | _ -> n)
            0
        in
        Alcotest.(check bool) "single load" true (loads <= 1));
    Alcotest.test_case "load CSE respects intervening stores" `Quick (fun () ->
        assert_agree_src
          "int g[4] = {1,2,3,4};\n\
           int main() { int a = g[1]; g[1] = 99; int b = g[1]; return a * 1000 \
           + b; }"
          2099l);
    Alcotest.test_case "licm hoists invariant computation" `Quick (fun () ->
        let m =
          compile_opt
            "int main() { int k = 37; int s = 0; for (int i = 0; i < 50; i++) \
             { int inv = k * k + 5; s += inv ^ i; } return s; }"
        in
        let f = Ir.find_func m "main" in
        let forest = Loops.analyze f in
        (* the multiply must live outside every loop *)
        let ok = ref true in
        Ir.iter_insts f (fun (i : Ir.inst) ->
            match i.Ir.kind with
            | Ir.Binop (Ir.Mul, _, _) ->
                if Loops.depth_of_block forest i.Ir.block > 0 then ok := false
            | _ -> ());
        Alcotest.(check bool) "multiply hoisted" true !ok);
    Alcotest.test_case "licm hoists loads from store-free loops" `Quick
      (fun () ->
        let m =
          compile_opt
            "int g = 77;\n\
             int acc;\n\
             void run() { int s = 0; for (int i = 0; i < 40; i++) s += g; acc \
             = s; }\n\
             int main() { run(); return acc; }"
        in
        let r = Interp.run m in
        Alcotest.(check check_i32) "semantics kept" 3080l r.Interp.ret);
  ]

(* --- loop unrolling (off by default; LegUp-style) ----------------------- *)

let unroll_opts = { Pipeline.default with unroll = true; check = true }

let compile_unrolled src =
  let m = Twill_minic.Minic.compile src in
  Pipeline.run ~opts:unroll_opts m;
  m

let unroll_tests =
  [
    Alcotest.test_case "counted loop fully unrolls" `Quick (fun () ->
        let src =
          "int g[4] = {2,4,6,8};\n\
           int main() { int s = 1; for (int i = 0; i < 4; i++) s = s * 3 + \
           g[i]; return s; }"
        in
        let m = compile_unrolled src in
        let f = Ir.find_func m "main" in
        (* every multiply and load now sits outside any loop body (a 0-trip
           skeleton may remain; folding it away would need SCCP) *)
        let forest = Loops.analyze f in
        Ir.iter_insts f (fun i ->
            match i.Ir.kind with
            | Ir.Binop (Ir.Mul, _, _) | Ir.Load _ ->
                Alcotest.(check int)
                  "outside loops" 0
                  (Loops.depth_of_block forest i.Ir.block)
            | _ -> ());
        let r0 = Twill_minic.Minic.run_reference src in
        Alcotest.(check check_i32) "semantics" r0.ret (Interp.run m).Interp.ret);
    Alcotest.test_case "unrolling preserves early breaks" `Quick (fun () ->
        let src =
          "int main() { int s = 0; for (int i = 0; i < 6; i++) { if (s > 10) \
           break; s += i * i; } return s; }"
        in
        let r0 = Twill_minic.Minic.run_reference src in
        let m = compile_unrolled src in
        Alcotest.(check check_i32) "semantics" r0.ret (Interp.run m).Interp.ret);
    Alcotest.test_case "large trips are left alone" `Quick (fun () ->
        let src =
          "int main() { int s = 0; for (int i = 0; i < 1000; i++) s += i; \
           return s; }"
        in
        let m = compile_unrolled src in
        let f = Ir.find_func m "main" in
        let forest = Loops.analyze f in
        Alcotest.(check int) "loop kept" 1 (Array.length forest.Loops.loops);
        let r0 = Twill_minic.Minic.run_reference src in
        Alcotest.(check check_i32) "semantics" r0.ret (Interp.run m).Interp.ret);
    Alcotest.test_case "trip_count detects canonical loops" `Quick (fun () ->
        let m =
          Twill_minic.Minic.compile
            "int main() { int s = 0; for (int i = 0; i < 7; i++) s += i; \
             return s; }"
        in
        (* only cleanup, no unrolling, so the loop survives for analysis *)
        Pipeline.run m;
        let f = Ir.find_func m "main" in
        let forest = Loops.analyze f in
        Alcotest.(check int) "one loop" 1 (Array.length forest.Loops.loops);
        match Unroll.trip_count f forest forest.Loops.loops.(0) with
        | Some t -> Alcotest.(check int) "trip" 7 t
        | None -> Alcotest.fail "trip count not detected");
  ]

let prop_unroll_sound =
  QCheck.Test.make ~count:60 ~name:"unrolling preserves semantics"
    Gen_minic.arbitrary (fun src ->
      match Twill_minic.Minic.run_reference ~fuel:3_000_000 src with
      | exception Twill_minic.Ast_interp.Out_of_fuel -> QCheck.assume_fail ()
      | r0 ->
          let m = Twill_minic.Minic.compile src in
          Pipeline.run ~opts:unroll_opts m;
          let r1 = Interp.run ~fuel:30_000_000 m in
          r0.ret = r1.Interp.ret && r0.prints = r1.Interp.prints)

let suites =
  [
    ("passes:differential", differential_tests);
    ("passes:gvn-licm", gvn_licm_tests);
    ("passes:unroll", unroll_tests);
    ("passes:unroll-property", [ QCheck_alcotest.to_alcotest prop_unroll_sound ]);
    ("passes:dominators", dom_tests);
    ("passes:loops", loop_forest_tests);
    ("passes:behaviour", pass_tests);
    ("passes:property", property_tests);
  ]

