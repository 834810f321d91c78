(* Communication-pattern optimizer tests: the pass-config language, the
   semantics of each pass on a real CHStone extraction (merge renames
   and capacity-sums, size shrinks to the measured peak plus one slot,
   burst flags follow the profile), engine byte-identity and RTL
   co-simulation with the passes enabled, and the twilld per-kind
   cache-stats counters split by cache level. *)

module Comm = Twill.Comm
module Sim = Twill.Sim
module Threadgen = Twill.Threadgen
module Server = Twill_serve.Server
module Json = Twill_serve.Json

(* The BENCH_comm.json operating point: 3 stages, 2-deep queues. *)
let opts3 =
  {
    Twill.default_options with
    partition =
      { Twill.Partition.default_config with Twill.Partition.nstages = 3 };
    queue_depth = 2;
  }

let with_comm spec =
  match Comm.parse spec with
  | Ok c -> { opts3 with Twill.comm = c }
  | Error e -> Alcotest.failf "bad comm spec %S: %s" spec e

let sha_src = (Twill_chstone.Chstone.find "sha").Twill_chstone.Chstone.source

let extract_sha spec =
  let opts = with_comm spec in
  let m = Twill.compile ~opts sha_src in
  (opts, Twill.extract_comm ~opts m)

(* ret/prints of the optimized pipeline must match the unoptimized one,
   and at this operating point no pass combination regresses sha's
   cycle count (pinned by the committed BENCH_comm.json). *)
let check_behaviour ~spec (base : Twill.twill_result)
    (opt : Twill.twill_result) =
  Alcotest.(check int32)
    (spec ^ ": same return")
    base.Twill.scenario.Twill.ret opt.Twill.scenario.Twill.ret;
  Alcotest.(check (list int32))
    (spec ^ ": same prints")
    base.Twill.scenario.Twill.prints opt.Twill.scenario.Twill.prints;
  Alcotest.(check bool)
    (Printf.sprintf "%s: no cycle regression (%d vs base %d)" spec
       opt.Twill.scenario.Twill.cycles base.Twill.scenario.Twill.cycles)
    true
    (opt.Twill.scenario.Twill.cycles <= base.Twill.scenario.Twill.cycles)

(* --- the pass-config language --------------------------------------------- *)

let config_tests =
  [
    Alcotest.test_case "parse/show round-trips canonically" `Quick (fun () ->
        let show s =
          match Comm.parse s with
          | Ok c -> Comm.show c
          | Error e -> Alcotest.failf "parse %S: %s" s e
        in
        Alcotest.(check string) "none" "none" (show "none");
        Alcotest.(check string) "empty is none" "none" (show "");
        Alcotest.(check string) "all" "licm,merge,size,burst" (show "all");
        (* member order is canonical regardless of spelling order *)
        Alcotest.(check string) "size,merge" "merge,size" (show "size,merge");
        Alcotest.(check string)
          "burst,licm" "licm,burst" (show "burst,licm");
        (* idempotent: canonical strings parse back to themselves *)
        List.iter
          (fun s -> Alcotest.(check string) ("round-trip " ^ s) s (show s))
          [ "none"; "licm"; "merge"; "size"; "burst"; "licm,merge,size,burst" ]);
    Alcotest.test_case "unknown pass is rejected" `Quick (fun () ->
        match Comm.parse "merge,wat" with
        | Error msg ->
            Alcotest.(check bool)
              "message names the token" true
              (let n = String.length msg in
               let rec go i =
                 i + 5 <= n && (String.sub msg i 5 = {|"wat"|} || go (i + 1))
               in
               go 0)
        | Ok c -> Alcotest.failf "accepted as %s" (Comm.show c));
    Alcotest.test_case "enabled / needs_profile" `Quick (fun () ->
        Alcotest.(check bool) "none disabled" false (Comm.enabled Comm.none);
        Alcotest.(check bool) "all enabled" true (Comm.enabled Comm.all);
        (* licm and merge are static; size and burst read the seed profile *)
        let one s =
          match Comm.parse s with Ok c -> c | Error e -> Alcotest.fail e
        in
        Alcotest.(check bool) "licm static" false (Comm.needs_profile (one "licm"));
        Alcotest.(check bool) "merge static" false
          (Comm.needs_profile (one "merge"));
        Alcotest.(check bool) "size profiled" true
          (Comm.needs_profile (one "size"));
        Alcotest.(check bool) "burst profiled" true
          (Comm.needs_profile (one "burst"));
        Alcotest.(check (list string))
          "pass order" [ "licm"; "merge"; "size"; "burst" ] Comm.pass_names);
  ]

(* --- pass semantics on the sha extraction --------------------------------- *)

(* every queue id referenced by a Produce/Consume anywhere in the module *)
let referenced_qids (m : Twill.Ir.modul) : (int, unit) Hashtbl.t =
  let seen = Hashtbl.create 32 in
  List.iter
    (fun f ->
      Twill.Ir.iter_insts f (fun i ->
          match i.Twill.Ir.kind with
          | Twill.Ir.Produce (q, _) -> Hashtbl.replace seen q ()
          | Twill.Ir.Consume q -> Hashtbl.replace seen q ()
          | _ -> ()))
    m.Twill.Ir.funcs;
  seen

let pass_tests =
  [
    Alcotest.test_case "merge renames onto one physical queue" `Quick
      (fun () ->
        let _, (t, rep) = extract_sha "merge" in
        Alcotest.(check bool) "ran" true (rep.Comm.ran = [ "merge" ]);
        Alcotest.(check bool) "sha has mergeable channels" true
          (rep.Comm.merges <> []);
        let qs = t.Twill.Dswp.queues in
        let live = referenced_qids t.Twill.Dswp.modul in
        List.iter
          (fun (from, into) ->
            let a = qs.(from) and b = qs.(into) in
            Alcotest.(check bool) "absorbed marked" true
              (a.Threadgen.merged_into = Some into);
            Alcotest.(check bool) "survivor survives" true
              (b.Threadgen.merged_into = None);
            (* same stage pair, same original site block: the static
               position tag needs no wire bits *)
            Alcotest.(check int) "same src" a.Threadgen.src_stage
              b.Threadgen.src_stage;
            Alcotest.(check int) "same dst" a.Threadgen.dst_stage
              b.Threadgen.dst_stage;
            Alcotest.(check int) "same site" a.Threadgen.site_block
              b.Threadgen.site_block;
            Alcotest.(check bool) "widening only" true
              (b.Threadgen.width_bits >= a.Threadgen.width_bits);
            Alcotest.(check bool) "no op references the absorbed qid" false
              (Hashtbl.mem live from))
          rep.Comm.merges;
        (* capacity-preserving: each survivor inherits the summed member
           depths (everyone started at the uniform queue_depth = 2) *)
        Array.iter
          (fun (q : Threadgen.queue_info) ->
            if q.Threadgen.merged_into = None then begin
              let members =
                Array.to_list qs
                |> List.filter (fun (m : Threadgen.queue_info) ->
                       m.Threadgen.qid = q.Threadgen.qid
                       || m.Threadgen.merged_into = Some q.Threadgen.qid)
              in
              Alcotest.(check int)
                (Printf.sprintf "q%d capacity" q.Threadgen.qid)
                (min 1024 (2 * List.length members))
                q.Threadgen.depth
            end)
          qs);
    Alcotest.test_case "size shrinks to the measured peak plus one" `Quick
      (fun () ->
        (* seed profile of the unoptimized extraction — extract_comm runs
           exactly this simulation internally, so the sums below are the
           pass's own inputs *)
        let opts0 = with_comm "none" in
        let m0 = Twill.compile ~opts:opts0 sha_src in
        let t0, _ = Twill.extract_comm ~opts:opts0 m0 in
        let seed =
          Sim.simulate_threaded ~config:(Twill.sim_config opts0)
            ~schedules:
              (Twill.Schedule.of_threaded ~backend:opts0.backend
                 ~mem_banks:opts0.mem_banks t0)
            t0
        in
        let prof = seed.Sim.queue_profiles in
        let _, (t, rep) = extract_sha "merge,size" in
        Alcotest.(check bool) "sha re-sizes after merging" true
          (rep.Comm.resizes <> []);
        let qs = t.Twill.Dswp.queues in
        List.iter
          (fun (qid, old, fresh) ->
            let members =
              Array.to_list qs
              |> List.filter (fun (m : Threadgen.queue_info) ->
                     m.Threadgen.qid = qid || m.Threadgen.merged_into = Some qid)
            in
            let sum f =
              List.fold_left
                (fun acc (m : Threadgen.queue_info) ->
                  acc + f prof.(m.Threadgen.qid))
                0 members
            in
            let peak = sum (fun p -> p.Sim.qp_peak) in
            let stall = sum (fun p -> p.Sim.qp_stall_full) in
            let expected =
              if stall > 0 && peak >= old then min 1024 (max (old * 2) (peak + 1))
              else max 1 (min old (peak + 1))
            in
            Alcotest.(check int)
              (Printf.sprintf "q%d resized per profile (old %d)" qid old)
              expected fresh;
            Alcotest.(check int)
              (Printf.sprintf "q%d depth field updated" qid)
              fresh qs.(qid).Threadgen.depth)
          rep.Comm.resizes);
    Alcotest.test_case "size alone is a no-op when nothing peaks" `Quick
      (fun () ->
        (* without merging, every sha channel's peak+1 >= its depth and
           nothing stalls full, so the pass must not touch a thing *)
        let _, (t, rep) = extract_sha "size" in
        Alcotest.(check int) "no resizes" 0 (List.length rep.Comm.resizes);
        Array.iter
          (fun (q : Threadgen.queue_info) ->
            Alcotest.(check int)
              (Printf.sprintf "q%d untouched" q.Threadgen.qid)
              2 q.Threadgen.depth)
          t.Twill.Dswp.queues);
    Alcotest.test_case "burst flags merge survivors and measured runs" `Quick
      (fun () ->
        let _, (t, rep) = extract_sha "merge,burst" in
        Alcotest.(check bool) "sha flags bursts" true (rep.Comm.burst_qids <> []);
        let qs = t.Twill.Dswp.queues in
        List.iter
          (fun qid ->
            Alcotest.(check bool) "flag set on the queue" true
              qs.(qid).Threadgen.burst;
            Alcotest.(check bool) "only physical queues flagged" true
              (qs.(qid).Threadgen.merged_into = None))
          rep.Comm.burst_qids;
        (* unflagged physical queues keep the flag off *)
        Array.iter
          (fun (q : Threadgen.queue_info) ->
            if
              q.Threadgen.merged_into = None
              && not (List.mem q.Threadgen.qid rep.Comm.burst_qids)
            then
              Alcotest.(check bool)
                (Printf.sprintf "q%d not flagged" q.Threadgen.qid)
                false q.Threadgen.burst)
          qs);
    Alcotest.test_case "report runs passes in pipeline order" `Quick (fun () ->
        let _, (_, rep) = extract_sha "all" in
        Alcotest.(check (list string))
          "ran" [ "licm"; "merge"; "size"; "burst" ] rep.Comm.ran;
        Alcotest.(check string) "config echoed" "licm,merge,size,burst"
          (Comm.show rep.Comm.rconfig));
    Alcotest.test_case "every pass combination preserves behaviour" `Slow
      (fun () ->
        let opts0 = with_comm "none" in
        let m0 = Twill.compile ~opts:opts0 sha_src in
        let t0 = Twill.extract ~opts:opts0 m0 in
        let base = Twill.run_twill_threaded ~opts:opts0 t0 in
        List.iter
          (fun spec ->
            let opts, (t, _) = extract_sha spec in
            check_behaviour ~spec base (Twill.run_twill_threaded ~opts t))
          ([ "licm"; "merge"; "size"; "burst"; "all" ]
          @ [ "merge,size"; "merge,burst"; "licm,size" ]));
    Alcotest.test_case "merged channels get no RTL queue instance" `Quick
      (fun () ->
        let _, (t, rep) = extract_sha "merge" in
        let rtl = Twill.Vruntime.emit_system t in
        let count sub s =
          let n = String.length sub and m = String.length s in
          let c = ref 0 in
          for i = 0 to m - n do
            if String.sub s i n = sub then incr c
          done;
          !c
        in
        let physical =
          Array.to_list t.Twill.Dswp.queues
          |> List.filter (fun (q : Threadgen.queue_info) ->
                 q.Threadgen.merged_into = None)
          |> List.length
        in
        Alcotest.(check int) "one twill_queue instance per physical queue"
          physical
          (count "twill_queue #(" rtl);
        Alcotest.(check int) "absorbed channels are commented out"
          (List.length rep.Comm.merges)
          (count "merged into" rtl));
  ]

(* --- engine byte-identity with the optimizer enabled ----------------------- *)

(* The acceptance bar: with every pass on, the interpreted and compiled
   rtsim engines must agree on the full stats record — occupancy
   histograms, burst distributions, stall attribution and all — on all 8
   CHStone kernels.  Sim.diff_engines raises Engine_mismatch naming the
   first differing field. *)
let engine_tests =
  List.map
    (fun (b : Twill_chstone.Chstone.benchmark) ->
      Alcotest.test_case
        ("engines byte-identical with comm-opt " ^ b.Twill_chstone.Chstone.name)
        `Slow
        (fun () ->
          let opts = with_comm "all" in
          let m = Twill.compile ~opts b.Twill_chstone.Chstone.source in
          let t, _ = Twill.extract_comm ~opts m in
          let s =
            Sim.diff_engines
              ~config:(Twill.sim_config opts)
              ~schedules:
                (Twill.Schedule.of_threaded ~backend:opts.backend
                   ~mem_banks:opts.mem_banks t)
              ~master:t.Twill.Dswp.master t.Twill.Dswp.modul
              ~threads:(Sim.thread_specs t) ~queues:t.Twill.Dswp.queues
              ~nsems:t.Twill.Dswp.nsems ()
          in
          (* the profile itself must be live, not all-zero padding *)
          let produced =
            Array.fold_left
              (fun acc p -> acc + p.Sim.qp_produces)
              0 s.Sim.queue_profiles
          in
          Alcotest.(check bool) "channels carried traffic" true (produced > 0)))
    Twill_chstone.Chstone.all

(* --- RTL co-simulation with the optimizer enabled -------------------------- *)

let cosim_tests =
  [
    Alcotest.test_case "sha cosim agrees with merge,size,burst" `Slow
      (fun () ->
        let opts = with_comm "merge,size,burst" in
        let m = Twill.compile ~opts sha_src in
        let t, rep = Twill.extract_comm ~opts m in
        Alcotest.(check bool) "passes fired" true (rep.Comm.merges <> []);
        let r = Twill.cosim ~opts t in
        Alcotest.(check bool) "RTL agrees with rtsim" true r.Twill.Cosim.agree);
  ]

(* --- twilld per-kind cache counters split by cache level ------------------- *)

let counter name stats =
  match Json.find "by_kind" stats with
  | Some kinds -> (
      match Json.find name kinds with
      | Some k ->
          ( Option.value (Json.int_field "hits" k) ~default:(-1),
            Option.value (Json.int_field "misses" k) ~default:(-1) )
      | None -> (0, 0))
  | None -> Alcotest.fail "stats response has no by_kind"

let server_tests =
  [
    Alcotest.test_case "per-kind counters name the cache level" `Quick
      (fun () ->
        let t = Server.create ~workers:0 () in
        let src =
          "int main() { int acc = 0; for (int i = 0; i < 50; i++) { int a = \
           (i * 2654435761) >> 3; acc += (a ^ i) >> 2; } return acc; }"
        in
        let base =
          [
            ("src", Json.Str src);
            ("nstages", Json.Int 3);
            ("queue_depth", Json.Int 2);
          ]
        in
        let req kvs =
          let resp = Server.handle t (Json.Obj kvs) in
          Alcotest.(check (option bool))
            ("ok: " ^ Json.to_string (Json.Obj kvs))
            (Some true)
            (Json.bool_field "ok" resp);
          resp
        in
        let _ = req (("cmd", Json.Str "simulate") :: base) in
        let _ = req (("cmd", Json.Str "simulate") :: base) in
        (* the comm request (default: all passes) elaborates twice through
           the same cache — the optimized design misses, the pass-free
           baseline is the elaboration the simulate requests already
           populated *)
        let c1 = req (("cmd", Json.Str "comm") :: base) in
        let _ = req (("cmd", Json.Str "comm") :: base) in
        Alcotest.(check bool) "comm ran some pass" true
          (Json.str_field "comm" c1 = Some "licm,merge,size,burst");
        let stats = req [ ("cmd", Json.Str "stats") ] in
        Alcotest.(check (pair int int))
          "simulate:elab" (1, 1)
          (counter "simulate:elab" stats);
        Alcotest.(check (pair int int))
          "simulate:sim" (1, 1)
          (counter "simulate:sim" stats);
        (* request 3: optimized elab miss + baseline elab hit; request 4:
           both elabs hit *)
        Alcotest.(check (pair int int))
          "comm:elab" (3, 1)
          (counter "comm:elab" stats);
        Alcotest.(check (pair int int))
          "comm:sim" (1, 1) (counter "comm:sim" stats);
        (* the two kinds share one elaboration table: only the pass-free
           and the all-passes designs were ever built *)
        Alcotest.(check (option int))
          "elaborations" (Some 2)
          (Json.int_field "elaborations" stats);
        Alcotest.(check (option int))
          "simulations" (Some 2)
          (Json.int_field "simulations" stats);
        Alcotest.(check (option int))
          "requests" (Some 5)
          (Json.int_field "requests" stats));
  ]

let suites =
  [
    ("comm.config", config_tests);
    ("comm.passes", pass_tests);
    ("comm.engines", engine_tests);
    ("comm.cosim", cosim_tests);
    ("comm.serve", server_tests);
  ]
