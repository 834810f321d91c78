(* IR-level unit tests: arithmetic semantics, the structural verifier,
   layout, and the printer. *)

open Twill_ir
module Vec = Twill_ir.Vec

let check_i32 = Alcotest.testable (fun ppf v -> Fmt.pf ppf "%ld" v) Int32.equal

let arith_tests =
  [
    Alcotest.test_case "wraparound arithmetic" `Quick (fun () ->
        Alcotest.(check check_i32) "max+1" Int32.min_int
          (Interp.eval_binop Ir.Add Int32.max_int 1l);
        Alcotest.(check check_i32) "min-1" Int32.max_int
          (Interp.eval_binop Ir.Sub Int32.min_int 1l);
        Alcotest.(check check_i32) "mul wrap" 0l
          (Interp.eval_binop Ir.Mul 65536l 65536l));
    Alcotest.test_case "division semantics" `Quick (fun () ->
        Alcotest.(check check_i32) "trunc" (-2l) (Interp.eval_binop Ir.Sdiv (-7l) 3l);
        Alcotest.(check check_i32) "rem sign" (-1l) (Interp.eval_binop Ir.Srem (-7l) 3l);
        Alcotest.(check check_i32) "udiv" 2147483647l
          (Interp.eval_binop Ir.Udiv (-2l) 2l);
        (match Interp.eval_binop Ir.Sdiv 1l 0l with
        | exception Interp.Trap _ -> ()
        | _ -> Alcotest.fail "sdiv by zero must trap");
        match Interp.eval_binop Ir.Urem 1l 0l with
        | exception Interp.Trap _ -> ()
        | _ -> Alcotest.fail "urem by zero must trap");
    Alcotest.test_case "shift masking" `Quick (fun () ->
        Alcotest.(check check_i32) "<< 33 == << 1" 2l
          (Interp.eval_binop Ir.Shl 1l 33l);
        Alcotest.(check check_i32) "lshr" 1l
          (Interp.eval_binop Ir.Lshr Int32.min_int 31l);
        Alcotest.(check check_i32) "ashr" (-1l)
          (Interp.eval_binop Ir.Ashr Int32.min_int 31l));
    Alcotest.test_case "unsigned comparisons" `Quick (fun () ->
        Alcotest.(check check_i32) "-1 >u 1" 1l (Interp.eval_icmp Ir.Ugt (-1l) 1l);
        Alcotest.(check check_i32) "-1 <s 1" 1l (Interp.eval_icmp Ir.Slt (-1l) 1l));
  ]

(* The decoded engine's native-int operators against the [Int32] ones, on
   the edges random programs never reach: operands at the 16- and 32-bit
   boundaries, shift counts outside 0..31, and the division traps. *)
let binops =
  Ir.[ Add; Sub; Mul; And; Or; Xor; Shl; Lshr; Ashr; Sdiv; Srem; Udiv; Urem ]

let icmps = Ir.[ Eq; Ne; Slt; Sle; Sgt; Sge; Ult; Ule; Ugt; Uge ]

let edge_operands =
  [ 0l; 1l; -1l; 2l; -2l; 7l; 0x7fffl; 0x8000l; 0xffffl; 0x7fffffffl;
    Int32.min_int; -0x7fffffffl ]

let shift_counts = [ 0l; 1l; 31l; 32l; 33l; -1l ]

let outcome f = match f () with v -> Ok v | exception Interp.Trap m -> Error m

let pp_outcome = Alcotest.(result int string)

let int_operator_tests =
  [
    Alcotest.test_case "norm wraps to a sign-extended 32-bit value" `Quick
      (fun () ->
        Alcotest.(check int) "0xffffffff" (-1) (Interp.norm 0xffffffff);
        Alcotest.(check int) "0x80000000" (Int32.to_int Int32.min_int)
          (Interp.norm 0x80000000);
        Alcotest.(check int) "2^32 + 5" 5 (Interp.norm ((1 lsl 32) + 5)));
    Alcotest.test_case "int binops match eval_binop on edge operands" `Quick
      (fun () ->
        List.iter
          (fun op ->
            List.iter
              (fun a ->
                List.iter
                  (fun b ->
                    let want =
                      outcome (fun () -> Int32.to_int (Interp.eval_binop op a b))
                    in
                    let got =
                      outcome (fun () ->
                          Interp.eval_binop_int op (Int32.to_int a) (Int32.to_int b))
                    in
                    Alcotest.check pp_outcome
                      (Fmt.str "%a" Printer.pp_kind (Ir.Binop (op, Cst a, Cst b)))
                      want got)
                  (edge_operands @ shift_counts))
              edge_operands)
          binops);
    Alcotest.test_case "int icmps match eval_icmp on edge operands" `Quick
      (fun () ->
        List.iter
          (fun op ->
            List.iter
              (fun a ->
                List.iter
                  (fun b ->
                    Alcotest.(check int)
                      (Fmt.str "%a" Printer.pp_kind (Ir.Icmp (op, Cst a, Cst b)))
                      (Int32.to_int (Interp.eval_icmp op a b))
                      (Interp.eval_icmp_int op (Int32.to_int a) (Int32.to_int b)))
                  edge_operands)
              edge_operands)
          icmps);
  ]

(* The decoded engine allocates nothing per executed instruction: after a
   warm-up run, a call-free loop of arithmetic, loads, stores and phis
   stays far below one minor word per instruction, only its per-run
   set-up allocating. *)
let alloc_guard () =
  let m =
    Twill.compile
      "int a[64];\n\
       int main() { int s = 0; for (int i = 0; i < 20000; i++) { int j = i & \
       63; a[j] = a[j] + i * 3; s = s ^ (a[(j + 7) & 63] >> 1); } return s; }"
  in
  ignore (Interp.run m);
  let w0 = Gc.minor_words () in
  let r = Interp.run m in
  let per_inst = (Gc.minor_words () -. w0) /. float_of_int r.Interp.executed in
  if per_inst >= 0.05 then
    Alcotest.failf "%.3f minor words per executed instruction (%d executed)"
      per_inst r.Interp.executed

(* a tiny hand-built valid function: return arg0 + 1 *)
let mk_inc () =
  let open Ir in
  let f = create_func ~name:"main" ~nparams:0 in
  let b = add_block f in
  f.entry <- b.bid;
  let add = append_inst f b.bid (Binop (Add, Cst 41l, Cst 1l)) in
  b.term <- Ret (Some (Reg add));
  recompute_cfg f;
  f

let verify_tests =
  [
    Alcotest.test_case "valid module passes" `Quick (fun () ->
        let m = { Ir.funcs = [ mk_inc () ]; globals = [] } in
        Verify.check_modul m;
        Alcotest.(check check_i32) "runs" 42l (Interp.run m).Interp.ret);
    Alcotest.test_case "use of value-less instruction rejected" `Quick
      (fun () ->
        let open Ir in
        let f = create_func ~name:"main" ~nparams:0 in
        let b = add_block f in
        f.entry <- b.bid;
        let st = append_inst f b.bid (Store (Cst 20l, Cst 1l)) in
        b.term <- Ret (Some (Reg st));
        let m = { funcs = [ f ]; globals = [] } in
        match Verify.check_modul m with
        | exception Verify.Invalid _ -> ()
        | () -> Alcotest.fail "store has no result");
    Alcotest.test_case "phi incoming must match predecessors" `Quick (fun () ->
        let open Ir in
        let f = create_func ~name:"main" ~nparams:0 in
        let b0 = add_block f and b1 = add_block f in
        f.entry <- b0.bid;
        b0.term <- Br b1.bid;
        let p = append_inst f b1.bid (Phi [ (99, Cst 1l) ]) in
        b1.term <- Ret (Some (Reg p));
        let m = { funcs = [ f ]; globals = [] } in
        match Verify.check_modul m with
        | exception Verify.Invalid _ -> ()
        | () -> Alcotest.fail "bogus phi accepted");
    Alcotest.test_case "branch to unknown block rejected" `Quick (fun () ->
        let open Ir in
        let f = create_func ~name:"main" ~nparams:0 in
        let b = add_block f in
        f.entry <- b.bid;
        b.term <- Br 7;
        let m = { funcs = [ f ]; globals = [] } in
        match Verify.check_modul m with
        | exception Verify.Invalid _ -> ()
        | () -> Alcotest.fail "dangling branch accepted");
    Alcotest.test_case "call arity checked" `Quick (fun () ->
        let open Ir in
        let callee = create_func ~name:"f" ~nparams:2 in
        let cb = add_block callee in
        callee.entry <- cb.bid;
        cb.term <- Ret (Some (Cst 0l));
        let f = create_func ~name:"main" ~nparams:0 in
        let b = add_block f in
        f.entry <- b.bid;
        let c = append_inst f b.bid (Call ("f", [| Cst 1l |])) in
        b.term <- Ret (Some (Reg c));
        let m = { funcs = [ f; callee ]; globals = [] } in
        match Verify.check_modul m with
        | exception Verify.Invalid _ -> ()
        | () -> Alcotest.fail "arity mismatch accepted");
  ]

let layout_tests =
  [
    Alcotest.test_case "globals are laid out disjointly" `Quick (fun () ->
        let m =
          {
            Ir.funcs = [ mk_inc () ];
            globals =
              [
                { Ir.gname = "a"; size = 10; init = [||] };
                { Ir.gname = "b"; size = 5; init = [| 7l |] };
              ];
          }
        in
        let l = Layout.build m in
        let a = Int32.to_int (Layout.global_address l "a") in
        let b = Int32.to_int (Layout.global_address l "b") in
        Alcotest.(check bool) "above the reserved words" true
          (a >= Layout.base_addr);
        Alcotest.(check bool) "disjoint" true (b >= a + 10 || a >= b + 5);
        Alcotest.(check int) "words used" (Layout.base_addr + 15) l.Layout.words_used);
    Alcotest.test_case "memory image initialised" `Quick (fun () ->
        let m =
          {
            Ir.funcs = [ mk_inc () ];
            globals = [ { Ir.gname = "g"; size = 3; init = [| 1l; 2l |] } ];
          }
        in
        let l = Layout.build m in
        let mem = Array.make 64 9 in
        Layout.init_memory l m mem;
        let base = Int32.to_int (Layout.global_address l "g") in
        Alcotest.(check int) "g[0]" 1 mem.(base);
        Alcotest.(check int) "g[1]" 2 mem.(base + 1));
  ]

let printer_tests =
  [
    Alcotest.test_case "printer mentions every construct" `Quick (fun () ->
        let m =
          Twill_minic.Minic.compile
            "int g[2];\nint main() { g[0] = 3; int x = g[0] * 2; if (x > 4) \
             return x; return g[1]; }"
        in
        let s = Printer.modul_to_string m in
        List.iter
          (fun needle ->
            Alcotest.(check bool) needle true
              (let re = Str.regexp_string needle in
               try ignore (Str.search_forward re s 0); true
               with Not_found -> false))
          [ "global @g"; "func @main"; "store"; "load"; "mul"; "icmp"; "ret" ]);
  ]

let suites =
  [
    ("ir:arith", arith_tests);
    ("ir:int-operators", int_operator_tests);
    ("ir:interp-alloc",
      [ Alcotest.test_case "call-free loop allocates nothing per instruction"
          `Quick alloc_guard ]);
    ("ir:verify", verify_tests);
    ("ir:layout", layout_tests);
    ("ir:printer", printer_tests);
  ]
