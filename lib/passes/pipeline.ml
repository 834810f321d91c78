(* Pass manager: the standard optimisation pipeline mirroring the pass
   list the thesis runs before DSWP ("mem2reg", "mergereturn",
   "simplifycfg", "inline", "gvn", "adce", "loop-simplify", then the
   custom globals pass).

   The pipeline is exposed as an ordered list of named stages so the
   differential fuzzer can observe the program after every prefix and
   bisect a divergence to the first stage that introduces it
   ([run_prefix]); [run] is exactly the full prefix.  [break_pass]
   plants a deliberate miscompilation after the named stage — the
   fuzzing test-bench uses it to prove the whole oracle/shrinker/
   bisection loop catches a broken pass. *)

open Twill_ir.Ir

type options = {
  inline_aggressive : bool;
  inline_threshold : int;
  unroll : bool; (* full-unroll small constant-trip loops (LegUp-style) *)
  check : bool; (* verify SSA between stages; on in tests *)
  break_pass : string option;
  (* fault injection for the fuzzer's planted-bug tests: after the named
     stage runs, the module is deliberately miscompiled *)
}

let default = {
  inline_aggressive = false;
  inline_threshold = 60;
  unroll = false;
  check = false;
  break_pass = None;
}

let per_function_cleanup (f : func) : bool =
  let changed = ref (Simplifycfg.run f) in
  if Mem2reg.run f then changed := true;
  let continue_ = ref true in
  while !continue_ do
    let c1 = Constfold.run f in
    let c2 = Dce.run f in
    let c3 = Simplifycfg.run f in
    let c4 = Ifconv.run f in
    let c5 = Gvn.run f in
    let c6 = Licm.run f in
    continue_ := c1 || c2 || c3 || c4 || c5 || c6;
    if !continue_ then changed := true
  done;
  !changed

(* Applies [pass] to every element without short-circuiting, reporting
   whether any application changed anything. *)
let any pass xs =
  List.fold_left
    (fun acc x ->
      let c = pass x in
      c || acc)
    false xs

let verify_if opts m = if opts.check then Ssa_check.check_modul m

(* The deliberate miscompilation: XOR every return value of [main] with
   a nonzero constant.  Always changes the observable return (x ^ c <> x
   for c <> 0), never the print trace, and stays SSA-valid, so a planted
   bug is caught by every downstream observation point. *)
let sabotage (m : modul) : unit =
  match List.find_opt (fun f -> f.name = "main") m.funcs with
  | None -> ()
  | Some f ->
      for bid = 0 to Twill_ir.Vec.length f.blocks - 1 do
        let b = block f bid in
        match b.term with
        | Ret (Some op) ->
            let id = append_inst f bid (Binop (Xor, op, Cst 0x5Al)) in
            b.term <- Ret (Some (Reg id))
        | _ -> ()
      done

(* One named stage of the pipeline.  [verify] marks the SSA checkpoints
   of the historical monolithic [run] (kept at the same boundaries).
   [apply] reports whether it changed the module, and a [false] must be
   trustworthy: the fuzz oracle skips re-interpreting a prefix whose
   new stages all report no change.  The flags are the same ones the
   cleanup fixpoint already terminates on, so an under-report would be
   a pre-existing pass bug — and the rtsim/vsim stages re-execute the
   fully-optimised module for real in any case. *)
type stage = {
  sname : string;
  verify : bool;
  apply : options -> modul -> bool;
}

let cleanup_fixpoint _ (m : modul) = any per_function_cleanup m.funcs

let stages : stage list =
  [
    {
      sname = "simplifycfg";
      verify = false;
      apply = (fun _ m -> any Simplifycfg.run m.funcs);
    };
    {
      sname = "mem2reg";
      verify = false;
      apply = (fun _ m -> any Mem2reg.run m.funcs);
    };
    { sname = "cleanup"; verify = true; apply = cleanup_fixpoint };
    {
      sname = "unroll";
      verify = true;
      apply =
        (fun opts m ->
          opts.unroll
          &&
          let c = any Unroll.run m.funcs in
          let c' = any per_function_cleanup m.funcs in
          c || c');
    };
    {
      sname = "inline";
      verify = false;
      apply =
        (fun opts m ->
          let c =
            Inline.run ~aggressive:opts.inline_aggressive
              ~threshold:opts.inline_threshold m
          in
          let c' = any per_function_cleanup m.funcs in
          c || c');
    };
    {
      sname = "dce-calls";
      verify = true;
      apply = (fun _ m -> any (Dce.run_with_calls m) m.funcs);
    };
    {
      sname = "preheaders";
      verify = true;
      apply = (fun _ m -> any Loops.ensure_preheaders m.funcs);
    };
    {
      sname = "globals2args";
      verify = true;
      apply =
        (fun _ m ->
          let c = Globals2args.run m in
          let c' = any Dce.run m.funcs in
          c || c');
    };
  ]

let stage_names : string list = List.map (fun s -> s.sname) stages
let nstages : int = List.length stages

(* Runs stages with indices in [k0, k1) in place.  Running a prefix in
   two steps — [run_range 0 j] then [run_range j k] — is identical to
   [run_range 0 k]: each stage is an in-place transform of the module,
   so only where the loop is cut differs.  The fuzz oracle leans on
   this to observe every prefix of the pipeline while applying each
   pass once. *)
let run_range ?(opts = default) (k0 : int) (k1 : int) (m : modul) : bool =
  if k0 < 0 || k1 > nstages || k0 > k1 then
    invalid_arg (Printf.sprintf "Pipeline.run_range: [%d, %d)" k0 k1);
  let changed = ref false in
  List.iteri
    (fun i s ->
      if k0 <= i && i < k1 then begin
        if s.apply opts m then changed := true;
        if opts.break_pass = Some s.sname then begin
          sabotage m;
          changed := true
        end;
        if s.verify then verify_if opts m
      end)
    stages;
  !changed

(* Runs the first [k] stages (0 <= k <= nstages) in place. *)
let run_prefix ?(opts = default) (k : int) (m : modul) : unit =
  ignore (run_range ~opts 0 k m)

(* Runs the standard pipeline in place. *)
let run ?(opts = default) (m : modul) : unit = run_prefix ~opts nstages m
