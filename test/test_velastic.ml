(* Elastic dataflow backend tests: structural shape of the handshake
   fabric (one stage per block, one valid/ready channel per CFG edge),
   behavioural token-passing against a scripted call-port responder at
   several reply latencies (the protocol is latency-insensitive, so the
   observable results must not depend on when the runtime answers),
   engine byte-identity on elastic designs, the three-way differential
   oracle (rtsim / FSM RTL / dataflow RTL), qcheck invariants of the
   shared scheduler under both backends, and strict rejection of
   unknown backend/engine spellings everywhere they are parsed. *)

module Ir = Twill_ir.Ir
module Vec = Twill_ir.Vec
module S = Twill_hls.Schedule
module Velastic = Twill_vgen.Velastic
module Vemit = Twill_vgen.Vemit
open Twill_vsim

let opts3 =
  {
    Twill.default_options with
    partition =
      { Twill.Partition.default_config with Twill.Partition.nstages = 3 };
  }

let opts_df = { opts3 with Twill.backend = Twill.Schedule.Dataflow }

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

let check_ok name (src : string) =
  match Vsim.check src with
  | Ok () -> ()
  | Error (msg, line) -> Alcotest.failf "%s: line %d: %s" name line msg

(* Compile [src] and emit main (unpartitioned) under the elastic
   template; returns the function (CFG recomputed by the scheduler) and
   the Verilog text. *)
let elastic_main src =
  let m = Twill.compile src in
  let f = Twill.Ir.find_func m "main" in
  let layout = Twill_ir.Layout.build m in
  let v =
    Velastic.emit_hw_thread layout f (S.schedule ~backend:S.Dataflow f)
  in
  (f, v)

(* --- structural shape of the handshake fabric --------------------------- *)

let distinct_edges (f : Ir.func) =
  Vec.fold_left
    (fun acc (b : Ir.block) ->
      List.fold_left
        (fun acc t ->
          if List.mem (b.Ir.bid, t) acc then acc else (b.Ir.bid, t) :: acc)
        acc
        (List.sort_uniq compare (Ir.succs_of_term b.Ir.term)))
    [] f.Ir.blocks

let branchy =
  "int main() { int s = 0; for (int i = 0; i < 20; i = i + 1) { if (i > 10) \
   s = s + i * 3; else s = s - i; } return s; }"

let structure_tests =
  [
    Alcotest.test_case "elastic thread is well formed, without a central FSM"
      `Quick (fun () ->
        let _, v = elastic_main branchy in
        check_ok "elastic main" v;
        Alcotest.(check bool) "module name" true
          (contains v "module twill_thread_main");
        Alcotest.(check bool) "no monolithic state machine" false
          (contains v "case (state)");
        Alcotest.(check bool) "per-stage step counters" true
          (contains v "case (step_0)"));
    Alcotest.test_case "one stage per block, one channel per CFG edge" `Quick
      (fun () ->
        let f, v = elastic_main branchy in
        let nblocks = Vec.length f.Ir.blocks in
        let nedges = List.length (distinct_edges f) in
        Alcotest.(check bool) "several blocks" true (nblocks >= 3);
        Alcotest.(check int) "token per block" nblocks (count v "reg tok_");
        Alcotest.(check int) "fire per block" nblocks (count v "wire fire_");
        Alcotest.(check int) "ready per block" nblocks
          (count v "assign rdy_");
        Alcotest.(check int) "stall per block" nblocks
          (count v "assign stall_");
        Alcotest.(check int) "valid per edge" nedges (count v "assign ev_");
        (* the ready equation of the contract, literally, for each stage *)
        Vec.iter
          (fun (b : Ir.block) ->
            let eq =
              Printf.sprintf "assign rdy_%d = !tok_%d || fire_%d;" b.Ir.bid
                b.Ir.bid b.Ir.bid
            in
            Alcotest.(check bool) eq true (contains v eq))
          f.Ir.blocks);
    Alcotest.test_case "external ports match the FSM backend" `Quick (fun () ->
        let m = Twill.compile branchy in
        let f = Twill.Ir.find_func m "main" in
        let layout = Twill_ir.Layout.build m in
        let fsm = Vemit.emit_hw_thread layout f (S.schedule f) in
        let df =
          Velastic.emit_hw_thread layout f (S.schedule ~backend:S.Dataflow f)
        in
        List.iter
          (fun port ->
            Alcotest.(check bool) ("fsm has " ^ port) true (contains fsm port);
            Alcotest.(check bool) ("dataflow has " ^ port) true
              (contains df port))
          [
            "input  wire clk"; "input  wire rst"; "input  wire start";
            "output reg  done"; "output reg  signed [31:0] retval";
            "fc_code"; "fc_target"; "fc_data"; "fc_addr"; "fc_valid";
            "input  wire [3:0]  ret_code";
            "input  wire signed [31:0] ret_data";
            "input  wire        ret_valid";
          ]);
  ]

(* --- behavioural: token lifecycle against a scripted responder ----------- *)

(* Minimal stand-in for the runtime system: answers loads from a sparse
   memory, absorbs stores and prints, and can sit on every reply for
   [reply_latency] cycles — the stage must park (stall high) and resume
   with identical observable results. *)
let run_elastic ?(reply_latency = 0) ?(max_cycles = 20_000)
    ?(observe = fun (_ : Vsim.t) -> ()) (i : Vsim.t) =
  Vsim.poke i "rst" 1;
  Vsim.step i;
  Vsim.poke i "rst" 0;
  Vsim.poke i "start" 1;
  Vsim.step i;
  Vsim.poke i "start" 0;
  let mem : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let prints = ref [] in
  let ops = ref 0 in
  let pending = ref None in
  let cycle = ref 0 in
  while Vsim.peek i "done" = 0 && !cycle < max_cycles do
    incr cycle;
    (match !pending with
    | None when Vsim.peek i "fc_valid" = 1 ->
        incr ops;
        let code = Vsim.peek i "fc_code" in
        let addr = Vsim.peek i "fc_addr" in
        let data = Vsim.peek i "fc_data" in
        let reply =
          match code with
          | 0 -> ( try Hashtbl.find mem addr with Not_found -> 0)
          | 1 ->
              Hashtbl.replace mem addr data;
              0
          | 6 ->
              prints := Int32.of_int data :: !prints;
              0
          | c -> Alcotest.failf "standalone thread drove fc_code %d" c
        in
        pending := Some (reply_latency, reply)
    | _ -> ());
    (match !pending with
    | Some (0, data) ->
        Vsim.poke i "ret_valid" 1;
        Vsim.poke i "ret_data" data;
        Vsim.step i;
        Vsim.poke i "ret_valid" 0;
        pending := None
    | Some (n, data) ->
        pending := Some (n - 1, data);
        Vsim.step i
    | None -> Vsim.step i);
    observe i
  done;
  if Vsim.peek i "done" = 0 then Alcotest.fail "elastic thread never finished";
  (Int32.of_int (Vsim.peek i "retval"), List.rev !prints, !ops, !cycle)

let instantiate_elastic src =
  let f, v = elastic_main src in
  let d = Vparse.parse v in
  (f, Vsim.instantiate d "twill_thread_main")

let memory_walk =
  "int main() { int a[8]; int s = 0; for (int i = 0; i < 8; i = i + 1) { \
   a[i] = i * 3; } for (int i = 0; i < 8; i = i + 1) { s = s + a[i]; } \
   print(s); return s; }"

let handshake_tests =
  [
    Alcotest.test_case "single-stage token lifecycle" `Quick (fun () ->
        let f, i = instantiate_elastic "int main() { return 42; }" in
        let entry = f.Ir.entry in
        Vsim.poke i "rst" 1;
        Vsim.step i;
        Vsim.poke i "rst" 0;
        Vsim.step i;
        (* no token before start; the free stage advertises ready *)
        Alcotest.(check int) "no token at rest" 0
          (Vsim.peek i (Printf.sprintf "tok_%d" entry));
        Alcotest.(check int) "free stage is ready" 1
          (Vsim.peek i (Printf.sprintf "rdy_%d" entry));
        Vsim.poke i "start" 1;
        Vsim.step i;
        Vsim.poke i "start" 0;
        Alcotest.(check int) "start injects the entry token" 1
          (Vsim.peek i (Printf.sprintf "tok_%d" entry));
        let fired = ref false in
        let budget = ref 20 in
        while Vsim.peek i "done" = 0 && !budget > 0 do
          decr budget;
          if Vsim.peek i (Printf.sprintf "fire_%d" entry) = 1 then
            fired := true;
          Vsim.step i
        done;
        Alcotest.(check bool) "terminator step fired" true !fired;
        Alcotest.(check int) "done" 1 (Vsim.peek i "done");
        Alcotest.(check int) "retval" 42 (Vsim.peek i "retval");
        Alcotest.(check int) "token retired at halt" 0
          (Vsim.peek i (Printf.sprintf "tok_%d" entry)));
    Alcotest.test_case "token walks only CFG edges, one-hot" `Quick (fun () ->
        let f, i = instantiate_elastic branchy in
        let nblocks = Vec.length f.Ir.blocks in
        let holder () =
          let h = ref [] in
          for b = 0 to nblocks - 1 do
            if Vsim.peek i (Printf.sprintf "tok_%d" b) = 1 then h := b :: !h
          done;
          !h
        in
        let prev = ref None in
        let transfers = ref 0 in
        let ret, prints, _, _ =
          run_elastic i ~observe:(fun _ ->
              (match holder () with
              | [] -> () (* halting cycle *)
              | [ b ] ->
                  (match !prev with
                  | Some p when p <> b ->
                      incr transfers;
                      Alcotest.(check bool)
                        (Printf.sprintf "transfer %d->%d is a CFG edge" p b)
                        true
                        (List.mem b (Ir.succs f p))
                  | _ -> ());
                  prev := Some b
              | hs ->
                  Alcotest.failf "token not one-hot: %d stages hold it"
                    (List.length hs)))
        in
        Alcotest.(check bool) "token moved between stages" true
          (!transfers > 0);
        Alcotest.(check (list int32)) "no prints" [] prints;
        (* 3 * (11 + ... + 19) - (0 + ... + 10) *)
        Alcotest.(check int32) "retval" 350l ret);
    Alcotest.test_case "call-port stall parks the stage, any reply latency"
      `Quick (fun () ->
        let run lat =
          let f, i = instantiate_elastic memory_walk in
          let nblocks = Vec.length f.Ir.blocks in
          let stalled = ref false in
          let ret, prints, ops, cycles =
            run_elastic i ~reply_latency:lat ~observe:(fun _ ->
                for b = 0 to nblocks - 1 do
                  if
                    Vsim.peek i (Printf.sprintf "tok_%d" b) = 1
                    && Vsim.peek i (Printf.sprintf "stall_%d" b) = 1
                  then stalled := true
                done)
          in
          (ret, prints, ops, cycles, !stalled)
        in
        let r0, p0, ops0, c0, _ = run 0 in
        let r3, p3, ops3, c3, stalled3 = run 3 in
        Alcotest.(check bool) "call port used" true (ops0 > 0);
        Alcotest.(check int) "same op stream length" ops0 ops3;
        Alcotest.(check bool) "slow replies park the stage" true stalled3;
        Alcotest.(check bool) "slow replies cost cycles" true (c3 > c0);
        (* latency-insensitivity: observables identical at every latency *)
        Alcotest.(check int32) "same retval" r0 r3;
        Alcotest.(check (list int32)) "same prints" p0 p3;
        Alcotest.(check int32) "retval" 84l r0;
        Alcotest.(check (list int32)) "prints" [ 84l ] p0);
  ]

(* --- both vsim engines on elastic designs, byte-identical VCDs ----------- *)

(* diff_engines asserts identical net/memory state per cycle and
   byte-identical VCD dumps internally. *)
let engine_tests =
  [
    Alcotest.test_case "single- and chained-stage micros lockstep" `Quick
      (fun () ->
        List.iter
          (fun src ->
            let _, v = elastic_main src in
            let d = Vparse.parse v in
            ignore
              (Cosim.diff_engines ~cycles:300 ~seed:21 d "twill_thread_main"))
          [ "int main() { return 42; }"; branchy; memory_walk ]);
    Alcotest.test_case "emitted dataflow design modules lockstep" `Quick
      (fun () ->
        let m = Twill.compile ~opts:opts_df branchy in
        let t = Twill.extract ~opts:opts_df m in
        let d =
          Vparse.parse
            (Twill.Vruntime.emit (S.of_threaded ~backend:S.Dataflow ~mem_banks:1 t) t)
        in
        List.iter
          (fun (md : Vparse.modul) ->
            ignore (Cosim.diff_engines ~cycles:120 ~seed:22 d md.Vparse.mname))
          d);
    Alcotest.test_case "dataflow cosim identical under both engines"
      `Quick (fun () ->
        let src =
          "int main() { int acc = 0; for (int i = 0; i < 80; i++) { int a = \
           (i * 2654435761) >> 3; acc += (a ^ i) >> 2; } return acc; }"
        in
        let m = Twill.compile ~opts:opts_df src in
        let t = Twill.extract ~opts:opts_df m in
        let rd = Twill.cosim ~opts:opts_df t in
        let rf = Twill.cosim ~opts:opts_df ~engine:Vsim.Fixpoint t in
        Alcotest.(check int32) "same return" rd.Cosim.rtl_ret rf.Cosim.rtl_ret;
        Alcotest.(check int) "same cycle count" rd.Cosim.rtl_cycles
          rf.Cosim.rtl_cycles;
        Alcotest.(check bool) "default agrees with rtsim" true rd.Cosim.agree;
        Alcotest.(check bool) "fixpoint agrees with rtsim" true rf.Cosim.agree);
  ]

(* --- three-way differential: rtsim / FSM RTL / dataflow RTL -------------- *)

let threeway name src =
  let m = Twill.compile ~opts:opts3 src in
  let t = Twill.extract ~opts:opts3 m in
  let bk = Twill.cosim_backends ~opts:opts3 t in
  Alcotest.(check bool) (name ^ ": fsm agrees with rtsim") true
    bk.Twill.bk_fsm.Cosim.agree;
  Alcotest.(check bool) (name ^ ": dataflow agrees with rtsim") true
    bk.Twill.bk_dataflow.Cosim.agree;
  Alcotest.(check bool) (name ^ ": identical call-port issue streams") true
    bk.Twill.bk_ops_match;
  Alcotest.(check bool) (name ^ ": three-way verdict") true bk.Twill.bk_agree;
  bk

let threeway_tests =
  [
    Alcotest.test_case "three-way oracle on a small pipeline" `Quick (fun () ->
        let bk =
          threeway "small"
            "int main() { int a[16]; int s = 0; for (int i = 0; i < 16; i = i \
             + 1) { a[i] = i * i; } for (int i = 0; i < 16; i = i + 1) { s = \
             s + a[i]; } print(s); return s; }"
        in
        (* the op trace is the observation point: hardware stages must
           have actually issued operations for the match to mean much *)
        Alcotest.(check bool) "some hw stage issued ops" true
          (Array.exists (fun l -> l <> []) bk.Twill.bk_fsm.Cosim.rtl_ops));
  ]
  @ List.map
      (fun name ->
        Alcotest.test_case ("three-way chstone " ^ name) `Slow (fun () ->
            let b = Twill_chstone.Chstone.find name in
            ignore (threeway name b.Twill_chstone.Chstone.source)))
      [ "motion"; "sha" ]

(* --- qcheck: scheduler invariants shared by both backends ---------------- *)

let fail fmt = QCheck.Test.fail_reportf fmt

let check_func_invariants (f : Ir.func) =
  Ir.recompute_cfg f;
  let fsm = S.schedule ~backend:S.Fsm f in
  let df = S.schedule ~backend:S.Dataflow f in
  let get (s : S.t) id =
    match s.S.start_arr.(id) with
    | -1 -> fail "%s: op %d unscheduled" f.Ir.name id
    | v -> v
  in
  List.iter
    (fun (which, (s : S.t)) ->
      Vec.iter
        (fun (b : Ir.block) ->
          let ns = s.S.nstates.(b.Ir.bid) in
          let seen = Hashtbl.create 16 in
          List.iter
            (fun id ->
              let i = Ir.inst f id in
              let st = get s id in
              if st < 0 || st >= ns then
                fail "%s/%s: op %d at state %d outside [0,%d)" f.Ir.name
                  which id st ns;
              (* no op before its operands; latency tables respected:
                 a non-chainable producer's result is only available
                 [latency] states after it starts *)
              List.iter
                (fun o ->
                  match o with
                  | Ir.Reg r when Hashtbl.mem seen r ->
                      let rs = get s r in
                      let rk = (Ir.inst f r).Ir.kind in
                      if S.chainable rk then begin
                        if st < rs then
                          fail "%s/%s: op %d (state %d) before operand %d \
                                (state %d)"
                            f.Ir.name which id st r rs
                      end
                      else if st < rs + S.latency_of_kind rk then
                        fail "%s/%s: op %d (state %d) inside operand %d's \
                              latency (start %d, lat %d)"
                          f.Ir.name which id st r rs (S.latency_of_kind rk)
                  | _ -> ())
                (Ir.operands i);
              Hashtbl.replace seen id ())
            b.Ir.insts;
          (* II bounds: pipelined blocks are self-loops, beat their own
             sequential schedule, and respect the shared-resource and
             loop-carried-memory recurrence floors *)
          let ii = s.S.ii.(b.Ir.bid) in
          if ii < 0 then fail "%s/%s: negative II" f.Ir.name which;
          if ii > 0 then begin
            if not (List.mem b.Ir.bid (Ir.succs_of_term b.Ir.term)) then
              fail "%s/%s: pipelined block %d is not a self-loop" f.Ir.name
                which b.Ir.bid;
            if ii >= ns then
              fail "%s/%s: II %d no better than %d states" f.Ir.name which ii
                ns;
            let cnt cls =
              List.fold_left
                (fun acc id ->
                  if S.class_of_kind (Ir.inst f id).Ir.kind = cls then acc + 1
                  else acc)
                0 b.Ir.insts
            in
            let need n u = (n + u - 1) / u in
            let res = S.default_resources in
            if ii < need (cnt S.Cmem) res.S.mem then
              fail "%s/%s: II %d under the memory-port floor" f.Ir.name which
                ii;
            if ii < need (cnt S.Cqueue) res.S.queue then
              fail "%s/%s: II %d under the call-slot floor" f.Ir.name which ii;
            List.iter
              (fun sid ->
                match (Ir.inst f sid).Ir.kind with
                | Ir.Store (sa, _) ->
                    List.iter
                      (fun lid ->
                        match (Ir.inst f lid).Ir.kind with
                        | Ir.Load la when la = sa ->
                            let bound = get s sid - get s lid + 1 in
                            if ii < bound then
                              fail
                                "%s/%s: II %d under the loop-carried \
                                 store/load recurrence %d"
                                f.Ir.name which ii bound
                        | _ -> ())
                      b.Ir.insts
                | _ -> ())
              b.Ir.insts
          end)
        f.Ir.blocks)
    [ ("fsm", fsm); ("dataflow", df) ];
  (* resource-free ASAP can never place later than the list schedule *)
  Vec.iter
    (fun (b : Ir.block) ->
      if df.S.nstates.(b.Ir.bid) > fsm.S.nstates.(b.Ir.bid) then
        fail "%s: dataflow needs %d states where fsm needs %d" f.Ir.name
          df.S.nstates.(b.Ir.bid) fsm.S.nstates.(b.Ir.bid);
      List.iter
        (fun id ->
          if get df id > get fsm id then
            fail "%s: dataflow schedules op %d later (%d) than fsm (%d)"
              f.Ir.name id (get df id) (get fsm id))
        b.Ir.insts)
    f.Ir.blocks;
  true

let prop_schedule_invariants =
  QCheck.Test.make ~count:40
    ~name:"schedule invariants hold under both backends" Gen_minic.arbitrary
    (fun src ->
      match Twill.compile src with
      | exception _ ->
          (* a generated program the frontend rejects is not a
             scheduling question *)
          QCheck.assume_fail ()
      | m -> List.for_all check_func_invariants m.Ir.funcs)

let prop_chstone_invariants =
  (* the fixed corpus, through the same checker — deterministic cover
     for the property above *)
  Alcotest.test_case "schedule invariants on chstone" `Quick (fun () ->
      List.iter
        (fun name ->
          let b = Twill_chstone.Chstone.find name in
          let m = Twill.compile b.Twill_chstone.Chstone.source in
          List.iter
            (fun f -> ignore (check_func_invariants f))
            m.Ir.funcs)
        [ "sha"; "motion" ])

let property_tests =
  [ QCheck_alcotest.to_alcotest prop_schedule_invariants;
    prop_chstone_invariants ]

(* --- strict rejection of unknown backend spellings and the engine knob ---- *)

let negative_tests =
  [
    Alcotest.test_case "the backend knob lists the valid values" `Quick
      (fun () ->
        let parse v = Twill.Options.backend.parse v Twill.default_options in
        (match parse "verilator" with
        | Error e ->
            Alcotest.(check bool) "names the offender" true
              (contains e "verilator");
            Alcotest.(check bool) "lists fsm" true (contains e "fsm");
            Alcotest.(check bool) "lists dataflow" true (contains e "dataflow")
        | Ok _ -> Alcotest.fail "unknown backend accepted");
        List.iter
          (fun b ->
            match parse (S.backend_name b) with
            | Ok o -> Alcotest.(check bool) "round-trips" true (o.Twill.backend = b)
            | Error e -> Alcotest.fail e)
          Twill.Schedule.all_backends);
    (* the fuzzer spells a backend through the table's knob: a repro
       header round-trips each backend, and the old private [both] is
       rejected like any unknown value *)
    Alcotest.test_case "fuzz backends spelling round-trips and rejects" `Quick
      (fun () ->
        let module C = Twill_fuzz.Campaign in
        let header v = Printf.sprintf "// backend=%s\n\nint main(){return 0;}\n" v in
        List.iter
          (fun b ->
            let o = C.options_of_repro (header (S.backend_name b)) in
            Alcotest.(check bool) "round-trips" true (o.Twill.backend = b))
          Twill.Schedule.all_backends;
        List.iter
          (fun v ->
            match C.options_of_repro (header v) with
            | exception Failure e ->
                Alcotest.(check bool) ("names " ^ v) true (contains e v);
                Alcotest.(check bool) "lists dataflow" true (contains e "dataflow")
            | _ -> Alcotest.failf "fuzz backend %s accepted" v)
          [ "both"; "verilator" ]);
    Alcotest.test_case "dse grid rejects unknown backend and engine" `Quick
      (fun () ->
        let module Grid = Twill_dse.Grid in
        (match Grid.parse "backend=verilator" with
        | Error e ->
            Alcotest.(check bool) "names the axis" true (contains e "backend");
            Alcotest.(check bool) "names the offender" true
              (contains e "verilator")
        | Ok _ -> Alcotest.fail "unknown backend axis value accepted");
        (* the simulator engine is not a grid axis *)
        (match Grid.parse "engine=compiled" with
        | Error e ->
            Alcotest.(check bool) "names the axis" true (contains e "engine")
        | Ok _ -> Alcotest.fail "engine axis accepted");
        match Grid.parse "backend=fsm,dataflow" with
        | Ok g ->
            Alcotest.(check int) "both backends parsed" 2
              (List.length (Grid.values g Twill.Options.backend))
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "twilld rejects unknown backend and engine" `Quick
      (fun () ->
        let module Server = Twill_serve.Server in
        let module Json = Twill_serve.Json in
        let t = Server.create ~workers:0 () in
        let req kvs = Server.handle t (Json.Obj kvs) in
        let base =
          [
            ("cmd", Json.Str "simulate");
            ("src", Json.Str "int main() { return 1; }");
          ]
        in
        let bad_backend = req (("backend", Json.Str "verilator") :: base) in
        Alcotest.(check (option bool)) "backend rejected" (Some false)
          (Json.bool_field "ok" bad_backend);
        Alcotest.(check bool) "error names the backend" true
          (match Json.str_field "error" bad_backend with
          | Some e -> contains e "unknown backend"
          | None -> false);
        (* the simulator engine is not a request field *)
        let bad_engine = req (("engine", Json.Str "compiled") :: base) in
        Alcotest.(check (option bool)) "engine rejected" (Some false)
          (Json.bool_field "ok" bad_engine);
        Alcotest.(check bool) "error names the field" true
          (match Json.str_field "error" bad_engine with
          | Some e -> contains e "engine"
          | None -> false);
        (* a good spelling still works, so the rejection is not a
           broken request shape *)
        let ok = req (("backend", Json.Str "dataflow") :: base) in
        Alcotest.(check (option bool)) "dataflow accepted" (Some true)
          (Json.bool_field "ok" ok));
  ]

let suites =
  [
    ("velastic:structure", structure_tests);
    ("velastic:handshake", handshake_tests);
    ("velastic:engines", engine_tests);
    ("velastic:threeway", threeway_tests);
    ("velastic:schedule-props", property_tests);
    ("velastic:negative", negative_tests);
  ]
