(* CHStone integration: every kernel self-checks, matches its pinned
   checksum, and observes identical behaviour under the AST interpreter,
   the IR interpreter, the extracted threads under rtsim and all three
   cycle-accurate flows. *)

open Twill_chstone

let check_i32 = Alcotest.testable (fun ppf v -> Fmt.pf ppf "%ld" v) Int32.equal

let kernel_tests =
  List.map
    (fun (b : Chstone.benchmark) ->
      Alcotest.test_case b.Chstone.name `Slow (fun () ->
          (* layer 0: AST reference *)
          let r0 = Twill_minic.Minic.run_reference ~fuel:200_000_000 b.Chstone.source in
          (match b.Chstone.expected with
          | Some e -> Alcotest.(check check_i32) "pinned checksum" e r0.ret
          | None -> ());
          Alcotest.(check bool) "self-check passes" true (Int32.compare r0.ret 0l >= 0);
          (* layer 1: unoptimised IR *)
          let m0 = Twill_minic.Minic.compile b.Chstone.source in
          let r1 = Twill_ir.Interp.run ~fuel:500_000_000 m0 in
          Alcotest.(check check_i32) "IR interp" r0.ret r1.Twill_ir.Interp.ret;
          Alcotest.(check (list check_i32)) "IR prints" r0.prints r1.Twill_ir.Interp.prints;
          (* layer 2: optimised + thread-extracted, run under rtsim *)
          let m = Twill.compile b.Chstone.source in
          let t = Twill.extract m in
          let r2 = (Twill.run_twill_threaded t).Twill.scenario in
          Alcotest.(check check_i32) "extracted threads" r0.ret r2.Twill.ret;
          Alcotest.(check (list check_i32)) "extracted prints" r0.prints
            r2.Twill.prints;
          (* layer 3: the three cycle-accurate flows (evaluate raises if
             they disagree) *)
          let r = Twill.evaluate ~auto_stages:false ~name:b.Chstone.name b.Chstone.source in
          Alcotest.(check check_i32) "cycle-accurate" r0.ret r.Twill.sw.Twill.ret;
          (* sanity on the performance shape: hardware flows beat software *)
          Alcotest.(check bool) "pure HW faster than pure SW" true
            (r.Twill.hw.Twill.cycles < r.Twill.sw.Twill.cycles);
          Alcotest.(check bool) "Twill faster than pure SW" true
            (r.Twill.twill.Twill.scenario.Twill.cycles < r.Twill.sw.Twill.cycles)))
    Chstone.all

let registry_tests =
  [
    Alcotest.test_case "eight benchmarks, as in the thesis" `Quick (fun () ->
        Alcotest.(check int) "count" 8 (List.length Chstone.all);
        let names = List.map (fun b -> b.Chstone.name) Chstone.all in
        List.iter
          (fun n ->
            Alcotest.(check bool) (n ^ " present") true (List.mem n names))
          [ "mips"; "adpcm"; "aes"; "blowfish"; "gsm"; "jpeg"; "motion"; "sha" ]);
    Alcotest.test_case "find raises on unknown" `Quick (fun () ->
        match Chstone.find "dfadd" with
        | exception Failure _ -> () (* 64-bit kernels are excluded, §6 *)
        | _ -> Alcotest.fail "dfadd should not exist");
  ]

let suites = [ ("chstone:registry", registry_tests); ("chstone:kernels", kernel_tests) ]
