(* Verilog-backend tests: structural validity of the generated RTL for
   the runtime primitives and for every CHStone hardware thread. *)

open Twill_vgen

let check_ok name (src : string) =
  match Vcheck.check src with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" name (Vcheck.error_to_string e)

let contains hay needle =
  let re = Str.regexp_string needle in
  try
    ignore (Str.search_forward re hay 0);
    true
  with Not_found -> false

let count hay needle =
  let re = Str.regexp_string needle in
  let rec go pos acc =
    match Str.search_forward re hay pos with
    | p -> go (p + 1) (acc + 1)
    | exception Not_found -> acc
  in
  go 0 0

let primitive_tests =
  [
    Alcotest.test_case "runtime primitives are well formed" `Quick (fun () ->
        List.iter
          (fun (n, s) -> check_ok n s)
          [
            ("queue", Vruntime.queue_module);
            ("semaphore", Vruntime.semaphore_module);
            ("arbiter", Vruntime.arbiter_module);
            ("hw interface", Vruntime.hw_interface_module);
            ("scheduler", Vruntime.scheduler_module);
          ]);
    Alcotest.test_case "queue implements the size+1 buffer of §4.3" `Quick
      (fun () ->
        Alcotest.(check bool) "extra slot" true
          (contains Vruntime.queue_module "buffer [0:DEPTH]");
        Alcotest.(check bool) "ack withheld when full" true
          (contains Vruntime.queue_module "give_ack <= (count < DEPTH)"));
    Alcotest.test_case "checker rejects broken RTL" `Quick (fun () ->
        (match Vcheck.check "module m;\nbegin endmodule" with
        | Error e ->
            Alcotest.(check int) "line of the open begin" 2 e.Vcheck.line;
            Alcotest.(check string) "offending token" "begin" e.Vcheck.token
        | Ok () -> Alcotest.fail "unbalanced begin accepted");
        match
          Vcheck.check "module m;\nalways @(posedge clk)\n  foo <= 1;\nendmodule"
        with
        | Error e ->
            Alcotest.(check int) "line of the bad target" 3 e.Vcheck.line;
            Alcotest.(check string) "offending token" "foo" e.Vcheck.token;
            Alcotest.(check bool) "message carries position" true
              (contains (Vcheck.error_to_string e) "line 3")
        | Ok () -> Alcotest.fail "undeclared assignment accepted");
    Alcotest.test_case "checker reports stray closers" `Quick (fun () ->
        match Vcheck.check "module m;\nend\nendmodule" with
        | Error e ->
            Alcotest.(check int) "line of the stray end" 2 e.Vcheck.line;
            Alcotest.(check string) "offending token" "end" e.Vcheck.token
        | Ok () -> Alcotest.fail "stray end accepted");
    Alcotest.test_case "checker reports never-closed constructs" `Quick
      (fun () ->
        (* the diagnostic points at the opener, not end-of-file *)
        (match Vcheck.check "// head\nmodule m;\nwire x;\n" with
        | Error e ->
            Alcotest.(check int) "line of the open module" 2 e.Vcheck.line;
            Alcotest.(check string) "offending token" "module" e.Vcheck.token;
            Alcotest.(check bool) "names the missing closer" true
              (contains e.Vcheck.reason "endmodule")
        | Ok () -> Alcotest.fail "unclosed module accepted");
        match
          Vcheck.check
            "module m;\nalways @(posedge clk)\n  case (x)\n  endcase\n\
             endcase\nendmodule"
        with
        | Error e ->
            Alcotest.(check int) "line of the stray endcase" 5 e.Vcheck.line;
            Alcotest.(check string) "offending token" "endcase" e.Vcheck.token
        | Ok () -> Alcotest.fail "stray endcase accepted");
  ]

let thread_tests =
  [
    Alcotest.test_case "hw thread module for a small kernel" `Quick (fun () ->
        let m =
          Twill.compile
            "int main() { int s = 0; for (int i = 0; i < 32; i++) s += i * i; \
             return s; }"
        in
        let layout = Twill_ir.Layout.build m in
        let v = Vemit.emit_hw_thread layout (Twill.Ir.find_func m "main") in
        check_ok "main" v;
        Alcotest.(check bool) "module name" true
          (contains v "module twill_thread_main");
        Alcotest.(check bool) "has FSM" true (contains v "case (state)");
        Alcotest.(check bool) "call port" true (contains v "fc_valid"));
    Alcotest.test_case "queue ops drive the call port" `Quick (fun () ->
        let opts =
          {
            Twill.default_options with
            partition =
              { Twill.Partition.default_config with Twill.Partition.nstages = 3 };
          }
        in
        let m =
          Twill.compile ~opts
            "int main() { int acc = 0; for (int i = 0; i < 100; i++) { int a \
             = i * 7; int b = (a ^ 3) * 5; acc += b; } return acc; }"
        in
        let t = Twill.extract ~opts m in
        let design = Vruntime.emit_design t in
        check_ok "design" design;
        Alcotest.(check bool) "instantiates queues" true
          (count design "twill_queue #(" >= 1);
        Alcotest.(check bool) "enqueue code driven" true
          (contains design "fc_code <= 4'd2"));
  ]

(* Digests of the whole emitted design per CHStone kernel (nstages = 3)
   under each backend at 1 and 4 memory banks.  The two thread emitters
   share their body, so a refactor of either must leave every design
   byte-identical; regenerate a row only for an intended RTL change. *)
let design_digests =
  [
    ("adpcm", "fsm", 1, "59036bfce0fed0d742244705d7e9e90d");
    ("adpcm", "fsm", 4, "b051a3f9962f57d906a289255c7674fa");
    ("adpcm", "dataflow", 1, "af2a61c786d2240c094e49645db9d6ba");
    ("adpcm", "dataflow", 4, "42ce9f7a5853ddc54c7f63589f1eb68b");
    ("aes", "fsm", 1, "3ffab0ec4ea3f9744485dfb42cbe0a5b");
    ("aes", "fsm", 4, "ff1c77b666e970c2dc705d5fe7ebc6db");
    ("aes", "dataflow", 1, "f18a6415e2de2daf137a0c92cd70cf35");
    ("aes", "dataflow", 4, "fe13f2da412a5fb0de8596c323866f56");
    ("blowfish", "fsm", 1, "3ba1f3408afc9cb7d13ebb56dfb1bb0c");
    ("blowfish", "fsm", 4, "9d26ae4683d67b652d68aa99d9f358b8");
    ("blowfish", "dataflow", 1, "90e68162a0414028d454c18bebeaaec0");
    ("blowfish", "dataflow", 4, "dd9c9b03911776533ab8544df0bb32f3");
    ("gsm", "fsm", 1, "bb96073a44ab9a2d6d47aaaf1b946139");
    ("gsm", "fsm", 4, "5f45f1367bb749ad76b0c6289b727b1f");
    ("gsm", "dataflow", 1, "71355a0e671bbc101dacc531cb5e0421");
    ("gsm", "dataflow", 4, "fcc6b4541587b068c2f58634c89862dc");
    ("jpeg", "fsm", 1, "d458805ce3a5b0868c926e5125700472");
    ("jpeg", "fsm", 4, "2fd2ab5c899c2ec15c4828e462265cc8");
    ("jpeg", "dataflow", 1, "6bf083227ede81dd3fc7e5f55304cf63");
    ("jpeg", "dataflow", 4, "633b97dd378be97d8e976bd551bebdca");
    ("mips", "fsm", 1, "5be4c3a4b6b317bb628c01fbad465804");
    ("mips", "fsm", 4, "adb7aeaf221e8d4969c41fa7570526ad");
    ("mips", "dataflow", 1, "58d1e81c148b62506cba03058b19b79d");
    ("mips", "dataflow", 4, "0bcd5de93987c008465ee12c9fa91cd3");
    ("motion", "fsm", 1, "76f40b8f321107e683157fe332c12c1c");
    ("motion", "fsm", 4, "d70ac94b7c42ab9946b1b912ab24dcae");
    ("motion", "dataflow", 1, "e514c93f32d61ffcd5cb981e81ce90ba");
    ("motion", "dataflow", 4, "80c0aad21414dbf60c3fbf1bd1845593");
    ("sha", "fsm", 1, "0f4d1aa5c76276882fbf8346f37fd66e");
    ("sha", "fsm", 4, "a5daea6186069f93dbcf1391df8f8497");
    ("sha", "dataflow", 1, "7e44048068d8572ced2eebec0c6d3119");
    ("sha", "dataflow", 4, "a231929783501f1dca4dcff36118305b");
  ]

let system_tests =
  List.map
    (fun (b : Twill_chstone.Chstone.benchmark) ->
      Alcotest.test_case ("chstone design " ^ b.Twill_chstone.Chstone.name)
        `Slow (fun () ->
          let opts =
            {
              Twill.default_options with
              partition =
                { Twill.Partition.default_config with Twill.Partition.nstages = 3 };
            }
          in
          let m = Twill.compile ~opts b.Twill_chstone.Chstone.source in
          let t = Twill.extract ~opts m in
          let design = Vruntime.emit_design t in
          check_ok b.Twill_chstone.Chstone.name design;
          let pinned =
            List.filter
              (fun (n, _, _, _) -> n = b.Twill_chstone.Chstone.name)
              design_digests
          in
          Alcotest.(check int) "pinned designs" 4 (List.length pinned);
          List.iter
            (fun (_, bname, banks, want) ->
              let backend =
                List.find
                  (fun k -> Twill.Schedule.backend_name k = bname)
                  Twill.Schedule.all_backends
              in
              Alcotest.(check string)
                (Printf.sprintf "%s design digest at %d bank(s)" bname banks)
                want
                (Digest.to_hex
                   (Digest.string
                      (Vruntime.emit_design ~backend ~mem_banks:banks t))))
            pinned;
          (* one queue instance per extracted queue (+1: the primitive's
             own module header) *)
          Alcotest.(check int) "queue instances"
            (Array.length t.Twill.Dswp.queues + 1)
            (count design "twill_queue #(");
          (* one thread module per hardware stage *)
          let hw =
            Array.to_list t.Twill.Dswp.roles
            |> List.filter (fun r -> r = Twill.Partition.Hw)
            |> List.length
          in
          Alcotest.(check int) "thread modules" hw
            (count design "module twill_thread_main__dswp_");
          (* the full design parses under the vsim front end, and every
             callee reachable from a hardware stage has its sub-FSM
             module emitted exactly once *)
          let parsed = Twill.Vparse.parse design in
          let hw_roots =
            Array.to_list t.Twill.Dswp.stages
            |> List.filteri (fun s _ ->
                   t.Twill.Dswp.roles.(s) = Twill.Partition.Hw)
          in
          List.iter
            (fun name ->
              ignore
                (Twill.Vparse.find_module parsed ("twill_thread_" ^ name));
              Alcotest.(check int)
                ("one module for " ^ name)
                1
                (count design ("module twill_thread_" ^ name ^ " (")))
            (Twill.reachable_funcs t.Twill.Dswp.modul hw_roots)))
    Twill_chstone.Chstone.all

(* the built twillc: kernel names reach emit-verilog, and what it prints
   is the in-process design *)
let cli_tests =
  let twillc =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/twillc.exe"
  in
  let run args =
    let ic = Unix.open_process_in (Filename.quote twillc ^ " " ^ args) in
    let out = In_channel.input_all ic in
    (out, Unix.close_process_in ic)
  in
  [
    Alcotest.test_case "twillc emit-verilog = Vruntime.emit_design" `Quick
      (fun () ->
        let out, status = run "emit-verilog sha --backend dataflow" in
        Alcotest.(check bool) "exits 0" true (status = Unix.WEXITED 0);
        let opts =
          { Twill.default_options with backend = Twill.Schedule.Dataflow }
        in
        let sha = Twill_chstone.Chstone.find "sha" in
        let t =
          Twill.extract ~opts
            (Twill.compile ~opts sha.Twill_chstone.Chstone.source)
        in
        Alcotest.(check bool) "same design" true
          (out = Vruntime.emit_design ~backend:Twill.Schedule.Dataflow t));
    Alcotest.test_case "twillc emit-verilog has no --no-auto" `Quick (fun () ->
        let _, status = run "emit-verilog sha --no-auto 2>/dev/null" in
        Alcotest.(check bool) "exits nonzero" true (status <> Unix.WEXITED 0));
  ]

let suites =
  [
    ("vgen:primitives", primitive_tests);
    ("vgen:threads", thread_tests);
    ("vgen:chstone", system_tests);
    ("vgen:cli", cli_tests);
  ]
