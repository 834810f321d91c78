(* The fuzzing subsystem's own test-bench: fixed-seed determinism,
   generator validity, a clean-stack differential sweep, and — via the
   pipeline's fault-injection hook — proof that the whole
   oracle/shrinker/bisection loop actually catches a broken pass,
   minimizes the repro, and names the right stage. *)

module F = Twill_fuzz
module Campaign = F.Campaign
module Oracle = F.Oracle

let broken pass =
  { Twill.default_options with Twill.pipeline_break = Some pass }

(* --- determinism -------------------------------------------------------- *)

(* The same (seed, index) must always yield the same program: corpus
   entries name their seed and the whole campaign replays from it. *)
let test_gen_deterministic () =
  for index = 0 to 9 do
    let a =
      Twill_minic.Ast_pp.program_to_string (F.Gen.program ~seed:42 ~index)
    in
    let b =
      Twill_minic.Ast_pp.program_to_string (F.Gen.program ~seed:42 ~index)
    in
    Alcotest.(check string) "same (seed, index), same program" a b
  done;
  let a = Twill_minic.Ast_pp.program_to_string (F.Gen.program ~seed:1 ~index:0) in
  let b = Twill_minic.Ast_pp.program_to_string (F.Gen.program ~seed:2 ~index:0) in
  Alcotest.(check bool) "different seeds differ" true (a <> b)

(* Two identical campaigns — planted bug included, so repros, shrinking
   and bisection all run — must report and persist byte-identical
   results. *)
let test_campaign_deterministic () =
  let go () =
    Campaign.run ~opts:(broken "inline") ~limit:Oracle.L_opt ~seed:7 ~cases:3
      ()
  in
  let s1 = go () and s2 = go () in
  Alcotest.(check string)
    "identical summaries"
    (Campaign.summary_to_string s1)
    (Campaign.summary_to_string s2);
  let dir tag =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "twill-fuzz-det-%d-%s" (Unix.getpid ()) tag)
  in
  let d1 = dir "a" and d2 = dir "b" in
  let f1 = Campaign.write_corpus ~break_pass:"inline" ~dir:d1 s1 in
  let f2 = Campaign.write_corpus ~break_pass:"inline" ~dir:d2 s2 in
  Alcotest.(check (list string)) "same corpus files" f1 f2;
  List.iter
    (fun name ->
      Alcotest.(check string)
        (name ^ " identical")
        (Campaign.read_file (Filename.concat d1 name))
        (Campaign.read_file (Filename.concat d2 name)))
    f1

(* --- generator validity ------------------------------------------------- *)

(* Every generated program must compile and terminate under the AST
   reference: a skip here is a generator defect (the campaign tolerates
   them, the generator should not produce them). *)
let test_generator_valid () =
  let s = Campaign.run ~limit:Oracle.L_ast ~seed:11 ~cases:50 () in
  Alcotest.(check int) "no skipped cases" 0 (List.length s.Campaign.s_skipped);
  Alcotest.(check int) "no divergences" 0 (List.length s.Campaign.s_repros)

(* --- the stack is clean ------------------------------------------------- *)

(* A short real sweep through optimisation and partitioned simulation:
   any repro is a genuine miscompilation. *)
(* One walk per source carries a module down the pass pipeline and
   reuses interpreter results across passes that change nothing.  Each
   of its observations must equal the from-scratch run it stands for:
   compile + run_prefix + interpret for the IR points, compile +
   extract + simulate for rtsim, and [Twill.cosim] for each backend's
   RTL — on a clean build and with a planted bug, whose sabotage must
   invalidate the reuse. *)
let test_walk_matches_fresh () =
  let srcs =
    List.map
      (fun index ->
        Twill_minic.Ast_pp.program_to_string (F.Gen.program ~seed:31 ~index))
      [ 0; 1; 2 ]
  in
  List.iter
    (fun opts ->
      List.iter
        (fun src ->
          let threaded () = Twill.extract ~opts (Twill.compile ~opts src) in
          let interp k engine =
            let m = Twill_minic.Minic.compile src in
            Twill_passes.Pipeline.run_prefix
              ~opts:(Twill.pipeline_options opts) k m;
            let r = Twill_ir.Interp.run ~engine m in
            (r.Twill_ir.Interp.ret, r.Twill_ir.Interp.prints)
          in
          let cosim backend =
            let r = Twill.cosim ~opts:{ opts with backend } (threaded ()) in
            (r.Twill.Cosim.rtl_ret, r.Twill.Cosim.rtl_prints)
          in
          let fresh = function
            | Oracle.Obs_ast ->
                let r = Twill_minic.Minic.run_reference src in
                (r.Twill_minic.Ast_interp.ret, r.Twill_minic.Ast_interp.prints)
            | Oracle.Obs_ir engine -> interp 0 engine
            | Oracle.Obs_opt (k, engine) -> interp k engine
            | Oracle.Obs_rtsim ->
                let r = Twill.run_twill_threaded ~opts (threaded ()) in
                (r.Twill.scenario.ret, r.Twill.scenario.prints)
            | Oracle.Obs_vsim -> cosim opts.Twill.backend
            | Oracle.Obs_velastic -> cosim Twill.Schedule.Dataflow
          in
          Seq.iter
            (fun (stage, outcome) ->
              let name = Oracle.stage_name stage in
              match outcome with
              | Oracle.Obs_ok o ->
                  let ret, prints = fresh stage in
                  Alcotest.(check int32) (name ^ " ret") ret o.Oracle.obs_ret;
                  Alcotest.(check (list int32))
                    (name ^ " prints") prints o.Oracle.obs_prints
              | Oracle.Obs_skip m | Oracle.Obs_error m ->
                  Alcotest.failf "%s observation failed: %s" name m)
            (Oracle.walk ~opts Oracle.all_stages src))
        srcs)
    [ Twill.default_options; broken "cleanup" ]

let test_stack_agrees () =
  let s = Campaign.run ~limit:Oracle.L_rtsim ~seed:23 ~cases:15 () in
  (match s.Campaign.s_repros with
  | [] -> ()
  | r :: _ ->
      Alcotest.failf "stack diverged on case %d: %s" r.Campaign.r_case
        (Oracle.divergence_to_string r.Campaign.r_divergence));
  Alcotest.(check bool)
    "most cases produced a verdict" true
    (2 * List.length s.Campaign.s_skipped <= s.Campaign.s_cases)

(* one vsim observation point per RTL backend: a case elaborates each
   backend's emitted design once *)
let test_one_vsim_point_per_backend () =
  let names backends =
    List.map Oracle.stage_name (Oracle.stages_for ~backends Oracle.L_vsim)
    |> List.filter (fun n -> String.starts_with ~prefix:"vsim" n)
  in
  Alcotest.(check (list string)) "both" [ "vsim"; "vsim-df" ] (names Oracle.B_both);
  Alcotest.(check (list string)) "fsm" [ "vsim" ] (names Oracle.B_fsm);
  Alcotest.(check (list string)) "dataflow" [ "vsim-df" ] (names Oracle.B_dataflow)

(* --- communication-optimizer soak --------------------------------------- *)

(* all four comm passes, forced 3-stage pipeline, shallow queues: the
   channel-graph rewrites (merge/size/burst at extraction, licm at
   thread generation) must preserve observable behaviour across the
   whole 200-case corpus *)
let comm_opts =
  {
    Twill.default_options with
    Twill.partition =
      { Twill.Partition.default_config with Twill.Partition.nstages = 3 };
    comm = Twill.Comm.all;
    queue_depth = 2;
  }

let test_comm_soak () =
  let s =
    Campaign.run ~opts:comm_opts ~limit:Oracle.L_rtsim ~seed:42 ~cases:200 ()
  in
  (match s.Campaign.s_repros with
  | [] -> ()
  | r :: _ ->
      Alcotest.failf "comm-optimized stack diverged on case %d: %s"
        r.Campaign.r_case
        (Oracle.divergence_to_string r.Campaign.r_divergence));
  Alcotest.(check bool)
    "most cases produced a verdict" true
    (2 * List.length s.Campaign.s_skipped <= s.Campaign.s_cases)

(* the soak only means something if the passes actually fire on the
   corpus: tally the pass reports over the same 200 programs and require
   every pass — including licm, which no CHStone kernel triggers — to
   have found real work somewhere *)
let test_comm_passes_fire () =
  let merges = ref 0 and hoists = ref 0 in
  let resizes = ref 0 and bursts = ref 0 in
  List.iter
    (fun (m, h, r, bu) ->
      merges := !merges + m;
      hoists := !hoists + h;
      resizes := !resizes + r;
      bursts := !bursts + bu)
    (Twill.Par.map
       (fun index ->
         let src =
           Twill_minic.Ast_pp.program_to_string (F.Gen.program ~seed:42 ~index)
         in
         try
           let m = Twill.compile ~opts:comm_opts src in
           let _, rep = Twill.extract_comm ~opts:comm_opts m in
           ( List.length rep.Twill.Comm.merges,
             rep.Twill.Comm.licm_hoists,
             List.length rep.Twill.Comm.resizes,
             List.length rep.Twill.Comm.burst_qids )
         with _ -> (0, 0, 0, 0))
       (List.init 200 (fun i -> i)));
  Alcotest.(check bool) "merge fires on the corpus" true (!merges > 0);
  Alcotest.(check bool) "licm fires on the corpus" true (!hoists > 0);
  Alcotest.(check bool) "size fires on the corpus" true (!resizes > 0);
  Alcotest.(check bool) "burst fires on the corpus" true (!bursts > 0)

(* --- planted bug: oracle, shrinker, bisection --------------------------- *)

let test_planted_bug_caught () =
  let opts = broken "inline" in
  let s = Campaign.run ~opts ~limit:Oracle.L_opt ~seed:7 ~cases:3 () in
  Alcotest.(check int) "every case diverges" 3
    (List.length s.Campaign.s_repros);
  List.iter
    (fun (r : Campaign.repro) ->
      (* shrinker soundness: smaller, and still diverging *)
      Alcotest.(check bool) "shrunk no larger than original" true
        (r.Campaign.r_shrunk_size <= r.Campaign.r_original_size);
      (match Oracle.diverges ~opts ~limit:Oracle.L_opt r.Campaign.r_shrunk_src with
      | Some _ -> ()
      | None -> Alcotest.fail "shrunk repro no longer diverges");
      (* minimized repro is genuinely small *)
      let lines =
        List.length
          (List.filter
             (fun l -> String.trim l <> "")
             (String.split_on_char '\n' r.Campaign.r_shrunk_src))
      in
      Alcotest.(check bool)
        (Printf.sprintf "repro under 25 lines (got %d)" lines)
        true (lines < 25);
      (* bisection names the sabotaged pass *)
      Alcotest.(check (option string))
        "first bad pass" (Some "inline") r.Campaign.r_first_bad_pass)
    s.Campaign.s_repros

(* The bisection must follow the planted bug around, not just always
   say "inline". *)
let test_bisection_tracks_pass () =
  List.iter
    (fun pass ->
      let opts = broken pass in
      let src =
        Twill_minic.Ast_pp.program_to_string (F.Gen.program ~seed:7 ~index:0)
      in
      match F.Bisect.first_bad_pass ~opts src with
      | Some r ->
          Alcotest.(check string) "bisected to the sabotaged pass" pass
            r.F.Bisect.bad_pass
      | None -> Alcotest.failf "bisection missed the bug planted in %s" pass)
    [ "simplifycfg"; "mem2reg"; "cleanup"; "inline"; "globals2args" ]

(* --- corpus round trip -------------------------------------------------- *)

let test_corpus_replay () =
  let opts = broken "mem2reg" in
  let s = Campaign.run ~opts ~limit:Oracle.L_opt ~seed:5 ~cases:2 () in
  Alcotest.(check bool) "found repros" true (s.Campaign.s_repros <> []);
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "twill-fuzz-replay-%d" (Unix.getpid ()))
  in
  let files = Campaign.write_corpus ~break_pass:"mem2reg" ~dir s in
  Alcotest.(check bool) "manifest + repros written" true
    (List.length files = 1 + List.length s.Campaign.s_repros);
  (* replay re-reads limit and break-pass from the repro headers *)
  let rs = Campaign.replay ~dir () in
  Alcotest.(check int) "all repros replayed" (List.length s.Campaign.s_repros)
    (List.length rs);
  List.iter
    (fun (r : Campaign.replay_result) ->
      Alcotest.(check bool)
        (r.Campaign.rp_file ^ " still diverges")
        true r.Campaign.rp_still_diverges)
    rs;
  (* the same corpus written without its break-pass header replays
     against the healthy pipeline — every repro must show up stale *)
  let clean_dir = dir ^ "-clean" in
  ignore (Campaign.write_corpus ~dir:clean_dir s);
  List.iter
    (fun (r : Campaign.replay_result) ->
      Alcotest.(check bool)
        (r.Campaign.rp_file ^ " goes stale without the planted bug")
        false r.Campaign.rp_still_diverges)
    (Campaign.replay ~dir:clean_dir ())

(* A repro file is a well-formed mini-C program: the oracle accepts it
   directly (comments and all). *)
let test_repro_is_parseable () =
  let opts = broken "inline" in
  let s = Campaign.run ~opts ~limit:Oracle.L_opt ~seed:7 ~cases:1 () in
  match s.Campaign.s_repros with
  | [] -> Alcotest.fail "expected a repro"
  | r :: _ -> (
      let text = Campaign.repro_to_string ~break_pass:"inline" r in
      match (Oracle.check ~limit:Oracle.L_ast text).Oracle.verdict with
      | Oracle.Agree -> ()
      | Oracle.Skipped m | Oracle.Diverge { Oracle.div_stage = m; _ } ->
          Alcotest.failf "repro text does not stand alone: %s" m)

let suites =
  [
    ( "fuzz",
      [
        Alcotest.test_case "generator is deterministic" `Quick
          test_gen_deterministic;
        Alcotest.test_case "campaign and corpus are deterministic" `Quick
          test_campaign_deterministic;
        Alcotest.test_case "generated programs are valid" `Quick
          test_generator_valid;
        Alcotest.test_case "walk matches from-scratch observation" `Quick
          test_walk_matches_fresh;
        Alcotest.test_case "whole stack agrees on a clean build" `Quick
          test_stack_agrees;
        Alcotest.test_case "one vsim point per backend" `Quick
          test_one_vsim_point_per_backend;
        Alcotest.test_case "comm passes preserve behaviour (200-case soak)"
          `Slow test_comm_soak;
        Alcotest.test_case "comm passes fire on the corpus" `Slow
          test_comm_passes_fire;
        Alcotest.test_case "planted bug: caught, shrunk, bisected" `Quick
          test_planted_bug_caught;
        Alcotest.test_case "bisection tracks the broken pass" `Quick
          test_bisection_tracks_pass;
        Alcotest.test_case "corpus writes and replays" `Quick
          test_corpus_replay;
        Alcotest.test_case "repro files stand alone" `Quick
          test_repro_is_parseable;
      ] );
  ]
