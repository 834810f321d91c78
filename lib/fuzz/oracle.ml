(* The differential oracle: run one program through every observation
   point of the stack (AST interpreter, raw IR, each optimisation
   prefix, partitioned rtsim execution, vsim RTL co-simulation) and
   compare the observable behaviour — return value plus print trace —
   against the AST reference interpreter.

   Only an Ok-vs-Ok mismatch is a divergence.  Out-of-fuel runs are
   skips (no verdict either way) and stage errors (simulator harness
   limitations, deadlock reports) are tallied but deliberately not
   treated as divergences: the fuzzer hunts miscompilations, not
   harness coverage gaps, and an error-class outcome would otherwise
   drown the signal.  The skip/error tallies still surface in the
   campaign summary so a harness regression is visible. *)

open Twill

(* How far down the stack to go.  Later stages are much slower (vsim
   co-simulation elaborates and simulates the emitted RTL of each
   backend), so the campaign driver exposes this as [--max-stage]. *)
type limit = L_ast | L_ir | L_opt | L_rtsim | L_vsim

let limit_to_string = function
  | L_ast -> "ast"
  | L_ir -> "ir"
  | L_opt -> "opt"
  | L_rtsim -> "rtsim"
  | L_vsim -> "vsim"

let limit_of_string = function
  | "ast" -> Some L_ast
  | "ir" -> Some L_ir
  | "opt" -> Some L_opt
  | "rtsim" -> Some L_rtsim
  | "vsim" -> Some L_vsim
  | _ -> None

let all_limits = [ L_ast; L_ir; L_opt; L_rtsim; L_vsim ]

(* Which RTL lowerings the vsim-rank stages exercise.  [B_both] (the
   default) makes every RTL-reaching case a cross-backend differential:
   the FSM cosims and the elastic dataflow cosim all observe the same
   program and any disagreement with the AST reference is a divergence
   attributed to its stage name ("vsim" vs "vsim-df"). *)
type backends = B_fsm | B_dataflow | B_both

let backends_to_string = function
  | B_fsm -> "fsm"
  | B_dataflow -> "dataflow"
  | B_both -> "both"

let backends_of_string = function
  | "fsm" -> Some B_fsm
  | "dataflow" -> Some B_dataflow
  | "both" -> Some B_both
  | _ -> None

let all_backends = [ B_fsm; B_dataflow; B_both ]

let rank_of_stage = function
  | Obs_ast -> 0
  | Obs_ir _ -> 1
  | Obs_opt _ -> 2
  | Obs_rtsim -> 3
  | Obs_vsim | Obs_velastic -> 4

let rank_of_limit = function
  | L_ast -> 0
  | L_ir -> 1
  | L_opt -> 2
  | L_rtsim -> 3
  | L_vsim -> 4

let stages_for ?(backends = B_both) (limit : limit) : obs_stage list =
  let wanted = function
    | Obs_vsim -> backends <> B_dataflow
    | Obs_velastic -> backends <> B_fsm
    | _ -> true
  in
  List.filter
    (fun s -> wanted s && rank_of_stage s <= rank_of_limit limit)
    obs_stages

type divergence = {
  div_stage : string;  (** first diverging observation point *)
  div_expected : observation;  (** the AST reference behaviour *)
  div_got : observation;
}

type verdict =
  | Agree
  | Diverge of divergence
  | Skipped of string
      (** the reference itself gave no verdict (out of fuel / rejected) *)

type result = {
  verdict : verdict;
  skips : (string * string) list;  (** stage name, reason *)
  errors : (string * string) list;
}

let obs_equal (a : observation) (b : observation) =
  Int32.equal a.obs_ret b.obs_ret
  && List.length a.obs_prints = List.length b.obs_prints
  && List.for_all2 Int32.equal a.obs_prints b.obs_prints

let check ?(opts = default_options) ?(limit = L_vsim) ?(backends = B_both)
    (src : string) : result =
  match observe ~opts ~stage:Obs_ast src with
  | Obs_skip r -> { verdict = Skipped ("ast: " ^ r); skips = []; errors = [] }
  | Obs_error r -> { verdict = Skipped ("ast: " ^ r); skips = []; errors = [] }
  | Obs_ok baseline ->
      let skips = ref [] and errors = ref [] in
      let rec scan = function
        | [] -> Agree
        | stage :: rest -> (
            let name = obs_stage_name stage in
            match observe ~opts ~stage src with
            | Obs_ok o ->
                if obs_equal baseline o then scan rest
                else
                  Diverge
                    { div_stage = name; div_expected = baseline; div_got = o }
            | Obs_skip r ->
                skips := (name, r) :: !skips;
                scan rest
            | Obs_error r ->
                errors := (name, r) :: !errors;
                scan rest)
      in
      let rest =
        List.filter (fun s -> s <> Obs_ast) (stages_for ~backends limit)
      in
      let verdict = scan rest in
      { verdict; skips = List.rev !skips; errors = List.rev !errors }

(* The shrinker predicate: does this source still expose a divergence
   (anywhere in the stack, up to [limit])? *)
let diverges ?opts ?limit ?backends (src : string) : divergence option =
  match (check ?opts ?limit ?backends src).verdict with
  | Diverge d -> Some d
  | Agree | Skipped _ -> None

let observation_to_string (o : observation) =
  Printf.sprintf "ret=%ld prints=[%s]" o.obs_ret
    (String.concat ";" (List.map Int32.to_string o.obs_prints))

let divergence_to_string (d : divergence) =
  Printf.sprintf "%s: expected %s, got %s" d.div_stage
    (observation_to_string d.div_expected)
    (observation_to_string d.div_got)
