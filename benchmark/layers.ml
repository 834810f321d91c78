(* The benchmark's ops, split into the public calls of each layer so that
   every call sits in its own trace span.  Each op checks its own output
   and returns [Error] with a reason when a check fails. *)

open Twill
module Chstone = Twill_chstone.Chstone

let insts (m : Ir.modul) =
  List.fold_left (fun acc f -> acc + Ir.num_live_insts f) 0 m.Ir.funcs

let prints_to_string l = String.concat ";" (List.map Int32.to_string l)

let stage_spans = List.map (( ^ ) "passes.") Pipeline.stage_names

(* mini-C source -> optimised IR, one span per pipeline stage: together
   the same work as [Twill.compile]. *)
let compile ~opts (src : string) : Ir.modul =
  let m = Trace.span "minic" (fun () -> Minic.compile src) in
  if !Trace.enabled then Trace.count "ir.insts_raw" (float_of_int (insts m));
  let popts = Twill.pipeline_options opts in
  List.iteri
    (fun k span ->
      Trace.span span (fun () -> ignore (Pipeline.run_range ~opts:popts k (k + 1) m)))
    stage_spans;
  if !Trace.enabled then Trace.count "ir.insts_opt" (float_of_int (insts m));
  m

let count_states (s : Schedule.t) =
  Trace.count "hls.states" (float_of_int s.Schedule.total_states)

(* Schedules exactly what [run_pure_hw] is about to look up, under the
   same cache key, so its span holds the rtsim run alone. *)
let schedule_pure_hw ~opts (m : Ir.modul) =
  Trace.span "hls" (fun () ->
      List.iter
        (fun (_, s) -> count_states s)
        (Twill.schedules_for { opts with backend = Schedule.Fsm } m))

(* Likewise for [run_twill_threaded]: every function reachable from a
   hardware stage, under the options' backend (designs here are unbanked,
   so the key carries no banking). *)
let schedule_twill ~opts (t : Dswp.threaded) =
  Trace.span "hls" (fun () ->
      let roots =
        List.filteri
          (fun s _ -> t.Dswp.roles.(s) = Partition.Hw)
          (Array.to_list t.Dswp.stages)
      in
      List.iter
        (fun name ->
          count_states
            (Schedule.cached ~res:opts.resources ~modulo:opts.modulo
               ~backend:opts.backend
               (Ir.find_func t.Dswp.modul name)))
        (Twill.reachable_funcs t.Dswp.modul roots))

let extract ~opts (m : Ir.modul) : Dswp.threaded =
  let profile = Trace.span "interp" (fun () -> Twill.profile_blocks ~opts m) in
  let prep = Trace.span "pdg" (fun () -> Dswp.prepare ~profile m) in
  let t = Trace.span "dswp" (fun () -> Twill.extract ~opts ~prep m) in
  Trace.count "dswp.queues" (float_of_int (Array.length t.Dswp.queues));
  t

let simulated layer f =
  let (s : scenario) = Trace.span layer f in
  Trace.count "rtsim.sim_cycles" (float_of_int s.cycles);
  s

let run_twill ~opts (t : Dswp.threaded) : twill_result =
  schedule_twill ~opts t;
  let r = Trace.span "rtsim.twill" (fun () -> Twill.run_twill_threaded ~opts t) in
  Trace.count "rtsim.sim_cycles" (float_of_int r.scenario.cycles);
  r

let check_expected (b : Chstone.benchmark) (ret : int32) =
  match b.Chstone.expected with
  | Some e when not (Int32.equal e ret) ->
      Error
        (Printf.sprintf "%s: ret %ld, pinned checksum %ld" b.Chstone.name ret e)
  | _ -> Ok ()

(* --- chstone-flow: [twillc run --stages 3 --no-auto], layer by layer ---- *)

type flow = { cycles : int; luts : int; ret : int32 }

let flow ?(opts = Twill.default_options) (b : Chstone.benchmark) :
    (flow, string) result =
  Schedule.clear_cache ();
  let m = compile ~opts b.Chstone.source in
  schedule_pure_hw ~opts m;
  let sw = simulated "rtsim.sw" (fun () -> Twill.run_pure_sw ~opts m) in
  let hw = simulated "rtsim.hw" (fun () -> Twill.run_pure_hw ~opts m) in
  let tw = run_twill ~opts (extract ~opts m) in
  let tws = tw.scenario in
  if
    sw.ret <> hw.ret || sw.ret <> tws.ret || sw.prints <> hw.prints
    || sw.prints <> tws.prints
  then
    Error
      (Printf.sprintf "%s: flows disagree (sw=%ld hw=%ld twill=%ld)"
         b.Chstone.name sw.ret hw.ret tws.ret)
  else
    Result.map
      (fun () -> { cycles = tws.cycles; luts = tws.area.Area.luts; ret = tws.ret })
      (check_expected b tws.ret)

(* --- chstone-cosim: [Twill.cosim_backends], layer by layer ------------- *)

type cosim_backend = { rtl_cycles : int; model_cycles : int; luts : int }

type cosim = { fsm : cosim_backend; dataflow : cosim_backend }

let cosim ?(opts = Twill.default_options) (b : Chstone.benchmark) :
    (cosim, string) result =
  Schedule.clear_cache ();
  let t = extract ~opts (compile ~opts b.Chstone.source) in
  let run backend =
    let opts = { opts with backend } in
    let v =
      Trace.span "vgen" (fun () ->
          Vruntime.emit_design ~backend ~mem_banks:opts.mem_banks t)
    in
    Trace.count "vgen.bytes" (float_of_int (String.length v));
    let design = Trace.span "vparse" (fun () -> Vparse.parse v) in
    let rtl =
      Trace.span "vsim" (fun () ->
          Cosim.run_threaded ~config:(Twill.sim_config opts) ~model:false
            ~trace:true ~design t)
    in
    Trace.count "vsim.rtl_cycles" (float_of_int rtl.Cosim.rtl_cycles);
    (rtl, run_twill ~opts t)
  in
  let fsm, fsm_ref = run Schedule.Fsm in
  let df, df_ref = run Schedule.Dataflow in
  let agrees (rtl : Cosim.report) (r : twill_result) =
    Int32.equal rtl.Cosim.rtl_ret r.scenario.ret
    && rtl.Cosim.rtl_prints = r.scenario.prints
  in
  let backend (rtl : Cosim.report) (r : twill_result) =
    {
      rtl_cycles = rtl.Cosim.rtl_cycles;
      model_cycles = r.scenario.cycles;
      luts = r.scenario.area.Area.luts;
    }
  in
  if not (agrees fsm fsm_ref && agrees df df_ref) then
    Error
      (Printf.sprintf "%s: RTL disagrees with rtsim (fsm %ld/%ld, dataflow %ld/%ld)"
         b.Chstone.name fsm.Cosim.rtl_ret fsm_ref.scenario.ret df.Cosim.rtl_ret
         df_ref.scenario.ret)
  else if fsm.Cosim.rtl_ops <> df.Cosim.rtl_ops then
    Error (b.Chstone.name ^ ": FSM and dataflow call-port streams differ")
  else
    Result.map
      (fun () -> { fsm = backend fsm fsm_ref; dataflow = backend df df_ref })
      (check_expected b fsm.Cosim.rtl_ret)

(* --- gen-compile: a generated program against the AST reference -------- *)

type gen = Gen_ok of int (* simulated cycles *) | Gen_skipped

let gen ?(opts = Twill.default_options) ~ref_fuel (src : string) :
    (gen, string) result =
  match
    Trace.span "minic.ref" (fun () -> Minic.run_reference ~fuel:ref_fuel src)
  with
  | exception Twill_minic.Ast_interp.Out_of_fuel -> Ok Gen_skipped
  | r ->
      Schedule.clear_cache ();
      let tw = run_twill ~opts (extract ~opts (compile ~opts src)) in
      let s = tw.scenario in
      let rr = r.Twill_minic.Ast_interp.ret
      and rp = r.Twill_minic.Ast_interp.prints in
      if Int32.equal rr s.ret && rp = s.prints then Ok (Gen_ok s.cycles)
      else
        Error
          (Printf.sprintf "reference ret=%ld prints=[%s], twill ret=%ld prints=[%s]"
             rr (prints_to_string rp) s.ret (prints_to_string s.prints))
