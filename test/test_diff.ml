(* Differential tests between the two interpreter engines: the decoded
   execution engine (the default, perf-critical path) must agree
   bit-for-bit with the tree-walking oracle on every observable —
   return value, print trace, instruction count and cycle count — for
   both raw and fully optimised modules.  Any divergence is a decode
   bug, so failures report which field split. *)

open Twill_ir
open Twill_passes

let opts = { Pipeline.default with check = true }

(* Modest budget: out-of-fuel programs are skipped (assume_fail below),
   and the tree oracle is several times slower than the decoded engine,
   so a big budget makes skipped cases dominate the suite's runtime. *)
let fuel = 2_000_000

(* Skipped cases are silent by design (QCheck discards them), which
   would also silently gut the suite if the generator drifted toward
   mostly non-terminating programs.  Count them and report at the end;
   the [skip budget] case fails outright if skips outnumber half the
   generated cases. *)
let attempts = ref 0
let skips = ref 0

let skip_case () : 'a =
  incr skips;
  QCheck.assume_fail ()

type obs = {
  ret : int32;
  cycles : int;
  executed : int;
  prints : int32 list;
}

let obs_of (r : Interp.result) =
  {
    ret = r.Interp.ret;
    cycles = r.Interp.cycles;
    executed = r.Interp.executed;
    prints = r.Interp.prints;
  }

let run_engine engine m =
  match Interp.run ~fuel ~engine m with
  | r -> Ok (obs_of r)
  | exception Interp.Trap msg -> Error ("trap: " ^ msg)

(* Both engines must take the same path: same result, or the same
   failure class.  Out-of-fuel programs are discarded before the slow
   tree run. *)
let agree (name : string) (m : Ir.modul) : bool =
  let d =
    try run_engine Interp.Decoded m
    with Interp.Out_of_fuel -> skip_case ()
  in
  let t =
    try run_engine Interp.Tree m
    with Interp.Out_of_fuel ->
      QCheck.Test.fail_reportf
        "%s: decoded finished in fuel, tree ran out" name
  in
  match (d, t) with
  | Ok od, Ok ot ->
      let fail field =
        QCheck.Test.fail_reportf "%s: engines disagree on %s" name field
      in
      if od.ret <> ot.ret then fail "ret"
      else if od.cycles <> ot.cycles then fail "cycles"
      else if od.executed <> ot.executed then fail "executed"
      else if od.prints <> ot.prints then fail "prints"
      else true
  | Error ed, Error et ->
      ed = et
      || QCheck.Test.fail_reportf "%s: different failures (%s vs %s)" name
           ed et
  | Ok _, Error e ->
      QCheck.Test.fail_reportf "%s: tree failed (%s), decoded succeeded"
        name e
  | Error e, Ok _ ->
      QCheck.Test.fail_reportf "%s: decoded failed (%s), tree succeeded"
        name e

let prop_engines_agree =
  QCheck.Test.make ~count:200
    ~name:"decoded engine == tree oracle (raw and optimised)"
    Gen_minic.arbitrary (fun src ->
      incr attempts;
      let raw = Twill_minic.Minic.compile src in
      let opt = Twill_minic.Minic.compile src in
      Pipeline.run ~opts opt;
      agree "raw" raw && agree "optimised" opt)

(* The decoded engine also backs the simulator's hardware threads and
   the block profiler: under a block-cost hook, instructions must cost
   nothing and the hook's answers must be charged identically. *)
let prop_engines_agree_hooks =
  QCheck.Test.make ~count:60
    ~name:"decoded engine == tree oracle under a block-cost hook"
    Gen_minic.arbitrary (fun src ->
      incr attempts;
      let m = Twill_minic.Minic.compile src in
      let block_cost (_ : Ir.func) (b : Ir.block) = 1 + (b.Ir.bid land 3) in
      let go engine =
        match Interp.run ~fuel ~engine ~block_cost m with
        | r -> Ok (obs_of r)
        | exception Interp.Trap msg -> Error msg
        | exception Interp.Out_of_fuel -> skip_case ()
      in
      go Interp.Decoded = go Interp.Tree)

(* Runs after the properties above (Alcotest keeps declaration order):
   reports how many generated cases the suite actually exercised and
   fails if more than half were discarded out-of-fuel. *)
let skip_report () =
  let a = !attempts and s = !skips in
  Printf.printf "diff: %d generated cases, %d skipped out of fuel (%.1f%%)\n"
    a s
    (if a = 0 then 0.0 else 100.0 *. float_of_int s /. float_of_int a);
  Alcotest.(check bool)
    "at most half of the generated cases may skip" true
    (2 * s <= a)

let suites =
  [
    ( "diff:engine",
      List.map QCheck_alcotest.to_alcotest
        [ prop_engines_agree; prop_engines_agree_hooks ]
      @ [ Alcotest.test_case "skip budget" `Quick skip_report ] );
  ]
