(* The benchmark's own checks: its split-up ops must do the same work as
   the library entry points they take apart, its counters must repeat,
   its twilld session must pass its own checks and cause the cache
   traffic it counts on, the compare tool must give the verdicts its
   rules define, and a run must print every metric BENCHMARK.json names. *)

open Twill_benchmark
module Chstone = Twill_chstone.Chstone
module Json = Twill_serve.Json
module Server = Twill_serve.Server

let ok = function Ok x -> x | Error e -> Alcotest.fail e

let flow_matches_evaluate name () =
  let b = Chstone.find name in
  let r = Twill.evaluate ~auto_stages:false ~name b.Chstone.source in
  let f = ok (Layers.flow b) in
  let tw = r.Twill.twill.Twill.scenario in
  Alcotest.(check int) "cycles" tw.Twill.cycles f.Layers.cycles;
  Alcotest.(check int) "LUTs" tw.Twill.area.Twill.Area.luts f.Layers.luts;
  Alcotest.(check int32) "ret" tw.Twill.ret f.Layers.ret

let cosim_matches_cosim_backends () =
  let b = Chstone.find "sha" in
  let bk = Twill.cosim_backends (Twill.extract (Twill.compile b.Chstone.source)) in
  Alcotest.(check bool) "cosim_backends agrees" true bk.Twill.bk_agree;
  let c = ok (Layers.cosim b) in
  let same label (x : Layers.cosim_backend) (r : Twill.Cosim.report) =
    Alcotest.(check int) (label ^ " RTL cycles") r.Twill.Cosim.rtl_cycles x.Layers.rtl_cycles;
    Alcotest.(check int) (label ^ " rtsim cycles") r.Twill.Cosim.model_cycles x.Layers.model_cycles
  in
  same "fsm" c.Layers.fsm bk.Twill.bk_fsm;
  same "dataflow" c.Layers.dataflow bk.Twill.bk_dataflow

(* A few ops of every in-process kind; returns their results. *)
let tiny_ops () =
  let flow = ok (Layers.flow (Chstone.find "motion")) in
  let gens =
    List.init 10 (fun index ->
        ok
          (Layers.gen ~ref_fuel:Workload.gen_ref_fuel
             (Twill_minic.Ast_pp.program_to_string
                (Twill_fuzz.Gen.program ~seed:1 ~index))))
  in
  (flow, gens)

let traced f =
  Trace.start ();
  let r = f () in
  Trace.stop ();
  (r, List.map (fun n -> (n, Trace.counter n)) Bench.counters)

let counters_repeat () =
  let r1, c1 = traced tiny_ops in
  let r2, c2 = traced tiny_ops in
  Alcotest.(check bool) "counters nonzero" true (List.exists (fun (_, v) -> v > 0.) c1);
  Alcotest.(check (list (pair string (float 0.)))) "counters repeat" c1 c2;
  Alcotest.(check bool) "traced results repeat" true (r1 = r2);
  Alcotest.(check bool) "untraced results match traced" true (tiny_ops () = r1)

(* Five sessions against an in-process server: every response passes
   the session's checks, and the response caches hit exactly on the
   requests the session repeats (the benchmark holds those to
   byte-identical answers). *)
let session_cache_traffic () =
  let session = Session.create ~seed:3 in
  let server = Server.create ~workers:0 () in
  let sent = ref 0 and seen = Hashtbl.create 16 and repeats = Hashtbl.create 2 in
  let bump tbl k = Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0) in
  let extractions = ref 0 in
  for _ = 1 to 5 * 4 do
    List.iter
      (fun (r : Session.request) ->
        incr sent;
        let resp =
          Json.to_string (Server.handle server (Json.of_string (Session.line_of r)))
        in
        ok (Session.check_response r ~sent:!sent resp);
        (match r with
        | Session.Sweep _ ->
            extractions :=
              !extractions + Option.get (Json.int_field "extractions" (Json.of_string resp))
        | Session.Simulate _ when Hashtbl.mem seen r -> bump repeats "simulate:sim"
        | Session.Comm _ when Hashtbl.mem seen r -> bump repeats "comm:sim"
        | _ -> ());
        Hashtbl.replace seen r ())
      (Session.next session).Session.requests
  done;
  let stats = Server.handle server (Json.Obj [ ("cmd", Json.Str "stats") ]) in
  let level kind field =
    Option.bind (Json.find "by_kind" stats) (Json.find kind)
    |> Option.map (fun j -> Option.value (Json.int_field field j) ~default:0)
    |> Option.value ~default:0
  in
  let n k = Option.value (Hashtbl.find_opt repeats k) ~default:0 in
  Alcotest.(check bool) "check repeats a kernel" true (n "simulate:sim" > 0);
  Alcotest.(check (list int)) "response-cache hits = repeated requests"
    [ n "simulate:sim"; n "comm:sim" ]
    [ level "simulate:sim" "hits"; level "comm:sim" "hits" ];
  Alcotest.(check int) "every sweep extraction goes through the cache" !extractions
    (level "dse:elab" "hits" + level "dse:elab" "misses");
  Twill.Par.pool_shutdown server.Server.pool

let compare_verdicts () =
  let judge better pairs =
    Compare.verdict_name (Compare.judge ~better ~bound:0.1 ~more_failures:false pairs)
  in
  let parent = [ 100.; 101.; 99.; 100.; 102.; 98.; 100.; 101.; 99.; 100. ] in
  let by f = List.map (fun p -> (p, f p)) parent in
  Alcotest.(check string) "faster everywhere" "improved"
    (judge Metric.Lower (by (fun p -> p *. 0.8)));
  Alcotest.(check string) "within the bound" "unchanged"
    (judge Metric.Lower (by (fun p -> p *. 1.05)));
  Alcotest.(check string) "past the bound" "regressed"
    (judge Metric.Lower (by (fun p -> p *. 1.2)));
  Alcotest.(check string) "higher is better" "regressed"
    (judge Metric.Higher (by (fun p -> p *. 0.8)));
  let noisy = List.mapi (fun i p -> p *. if i mod 2 = 0 then 0.7 else 1.3) parent in
  Alcotest.(check string) "parent too noisy" "unresolved"
    (judge Metric.Lower (List.map2 (fun n p -> (n, p)) noisy parent));
  Alcotest.(check string) "noisy parent, twice as slow" "regressed"
    (judge Metric.Lower (List.map2 (fun n p -> (n, 2. *. p)) noisy parent));
  Alcotest.(check string) "no gain with more failures" "unchanged"
    (Compare.verdict_name
       (Compare.judge ~better:Metric.Lower ~bound:0.1 ~more_failures:true
          (by (fun p -> p *. 0.8))))

let spec_names key =
  let j =
    Json.of_string (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all)
  in
  List.map
    (fun m ->
      (Option.get (Json.str_field "name" m), Option.get (Json.str_field "unit" m)))
    (Option.get (Json.list_field key j))

(* One short run of the real executable per trace setting: the result
   line must carry exactly the metrics BENCHMARK.json names, with their
   units. *)
let output_has_every_metric () =
  let check trace key =
    let ic =
      Unix.open_process_args_in "../main.exe"
        [| "../main.exe"; "--workload"; "chstone-flow"; "--seconds"; "0.01";
           "--trace"; trace |]
    in
    let lines = In_channel.input_lines ic in
    Alcotest.(check bool) "exit 0" true (Unix.close_process_in ic = Unix.WEXITED 0);
    let r = Json.of_string (List.hd (List.rev lines)) in
    Alcotest.(check (option bool)) "correct" (Some true) (Json.bool_field "correct" r);
    let got =
      match Json.find "metrics" r with
      | Some (Json.Obj kvs) ->
          List.map (fun (k, v) -> (k, Option.get (Json.str_field "unit" v))) kvs
      | _ -> []
    in
    Alcotest.(check (list (pair string string))) key
      (List.sort compare (spec_names key))
      (List.sort compare got)
  in
  check "0" "end_to_end";
  check "1" "per_layer"

let () =
  Alcotest.run "benchmark"
    [
      ( "layers",
        [
          Alcotest.test_case "flow = evaluate (sha)" `Quick (flow_matches_evaluate "sha");
          Alcotest.test_case "flow = evaluate (motion)" `Quick
            (flow_matches_evaluate "motion");
          Alcotest.test_case "cosim = cosim_backends (sha)" `Quick
            cosim_matches_cosim_backends;
          Alcotest.test_case "counters repeat" `Quick counters_repeat;
        ] );
      ("session", [ Alcotest.test_case "cache traffic" `Quick session_cache_traffic ]);
      ("compare", [ Alcotest.test_case "verdicts" `Quick compare_verdicts ]);
      ("output", [ Alcotest.test_case "every named metric" `Quick output_has_every_metric ]);
    ]
