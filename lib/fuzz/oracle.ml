(* The differential oracle: run one program through every observation
   point of the stack (AST interpreter, raw IR, each optimisation
   prefix, partitioned rtsim execution, vsim RTL co-simulation of every
   RTL lowering) and compare the observable behaviour — return value
   plus print trace — against the AST reference interpreter.  rtsim
   replays the schedules of [opts.backend]; the RTL rank co-simulates
   every lowering whatever that option says.

   Only an Ok-vs-Ok mismatch is a divergence.  Out-of-fuel runs are
   skips (no verdict either way) and stage errors (simulator harness
   limitations, deadlock reports) are tallied but deliberately not
   treated as divergences: the fuzzer hunts miscompilations, not
   harness coverage gaps, and an error-class outcome would otherwise
   drown the signal.  The skip/error tallies still surface in the
   campaign summary so a harness regression is visible.  A runtime
   alias-checker trap is neither: it convicts the dependence oracle or
   the banked arbitration, so it is a verdict of its own that fails a
   strict campaign like a divergence. *)

open Twill

(* --- observation points ---------------------------------------------------- *)

(* Every layer of the stack that claims observational equivalence with
   the source program is one observation point: the typed-AST reference
   interpreter, both IR interpreter engines on the raw module, the
   module after each prefix of the pass pipeline, the partitioned
   cycle-accurate rtsim execution, and vsim RTL co-simulation of each
   RTL lowering.  A point's run is reduced to the observables the
   thesis's correctness argument is about: return value + print trace. *)

type observation = { obs_ret : int32; obs_prints : int32 list }

type stage =
  | Obs_ast  (* typed-AST reference interpreter *)
  | Obs_ir of Interp.engine  (* raw (unoptimised) IR *)
  | Obs_opt of int * Interp.engine  (* after the first k pipeline stages *)
  | Obs_rtsim  (* partitioned cycle-accurate simulation *)
  | Obs_rtl of Schedule.backend
    (* RTL co-simulation of this lowering of the pipeline; with one
       point per lowering, every RTL-reaching case is also a
       cross-backend differential *)

type outcome =
  | Obs_ok of observation
  | Obs_skip of string  (* ran out of budget; not a verdict *)
  | Obs_error of string  (* the stage failed outright *)
  | Obs_trap of string  (* the runtime alias checker fired *)

let engine_suffix = function Interp.Decoded -> "" | Interp.Tree -> "-tree"

let stage_name = function
  | Obs_ast -> "ast"
  | Obs_ir e -> "ir" ^ engine_suffix e
  | Obs_opt (k, e) ->
      let pass =
        if k <= 0 then "none"
        else List.nth Pipeline.stage_names (min k Pipeline.nstages - 1)
      in
      Printf.sprintf "opt[%s]%s" pass (engine_suffix e)
  | Obs_rtsim -> "rtsim"
  | Obs_rtl Schedule.Fsm -> "vsim"
  | Obs_rtl Schedule.Dataflow -> "vsim-df"

(* Every observation point, in stack order. *)
let all_stages : stage list =
  [ Obs_ast; Obs_ir Interp.Tree; Obs_ir Interp.Decoded ]
  @ List.init Pipeline.nstages (fun k -> Obs_opt (k + 1, Interp.Decoded))
  @ [ Obs_opt (Pipeline.nstages, Interp.Tree); Obs_rtsim ]
  @ List.map (fun b -> Obs_rtl b) Schedule.all_backends

(* Runs one observation.  Out-of-fuel runs are skips; an alias-checker
   trap is a trap; interpreter traps, deadlocks and harness failures are
   errors; no exception escapes. *)
let outcome (run : unit -> observation) : outcome =
  match run () with
  | o -> Obs_ok o
  | exception Minic.Error msg -> Obs_error ("compile: " ^ msg)
  | exception (Twill_minic.Ast_interp.Out_of_fuel | Interp.Out_of_fuel) ->
      Obs_skip "out of fuel"
  | exception Sim.Out_of_fuel msg -> Obs_skip ("out of fuel: " ^ msg)
  | exception (Twill_minic.Ast_interp.Trap msg | Interp.Trap msg) ->
      Obs_error ("trap: " ^ msg)
  | exception Sim.Deadlock msg -> Obs_error ("deadlock: " ^ msg)
  | exception Sim.Alias_violation msg -> Obs_trap msg
  | exception Cosim.Cosim_error msg ->
      (* the harness's cycle budget, not a verdict *)
      if String.starts_with ~prefix:"co-simulation out of fuel" msg then
        Obs_skip msg
      else Obs_error ("cosim: " ^ msg)
  | exception Vsim.Sim_error msg -> Obs_error ("vsim: " ^ msg)
  | exception Failure msg -> Obs_error ("failure: " ^ msg)
  | exception Invalid_argument msg -> Obs_error ("invalid: " ^ msg)

(* [walk stages src] observes [src] at each of [stages], which must be
   in [all_stages] order, and yields every stage with its outcome as
   the sequence is consumed: a consumer that stops at a divergence runs
   nothing past it.

   The walk is one pass down the stack.  It compiles once and carries
   the module down the pass pipeline, applying each pass once
   ([Pipeline.run_range] splits a prefix exactly like that).  An
   interpreter result is reused until a pass changes the module:
   interpretation is deterministic and [Interp.run] does not mutate the
   module.  The fully optimised module is extracted once for rtsim and
   every cosim. *)
let walk ?(opts = default_options) (stages : stage list) (src : string) :
    (stage * outcome) Seq.t =
  let popts = pipeline_options opts in
  let m = lazy (Minic.compile src) in
  (* [m] has been through its first [applied] pipeline stages; [runs]
     holds the interpreter runs of it in that state, by engine; a stage
     that raised leaves the module half-transformed, so later stages
     re-raise its exception *)
  let applied = ref 0 and runs = ref [] and failed = ref None in
  let advance k =
    let m = Lazy.force m in
    Option.iter raise !failed;
    (match Pipeline.run_range ~opts:popts !applied k m with
    | true -> runs := []
    | false -> ()
    | exception e ->
        failed := Some e;
        raise e);
    applied := k;
    m
  in
  let interp k engine =
    let m = advance k in
    let r =
      match List.assoc_opt engine !runs with
      | Some r -> r
      | None ->
          let r = lazy (Interp.run ~fuel:opts.fuel ~engine m) in
          runs := (engine, r) :: !runs;
          r
    in
    let r = Lazy.force r in
    { obs_ret = r.Interp.ret; obs_prints = r.Interp.prints }
  in
  let t = lazy (extract ~opts (advance Pipeline.nstages)) in
  (* one design per backend: rtsim and the cosim of [opts.backend] read
     the same table *)
  let tables =
    List.map
      (fun backend ->
        ( backend,
          lazy
            (Schedule.of_threaded ~backend ~mem_banks:opts.mem_banks
               (Lazy.force t)) ))
      Schedule.all_backends
  in
  let table backend = Lazy.force (List.assoc backend tables) in
  let cosim backend =
    let t = Lazy.force t and schedules = table backend in
    let design = Vparse.parse (Vruntime.emit schedules t) in
    (* [~model:false]: every stage is compared against the AST
       reference, and rtsim is its own observation point *)
    let r =
      Cosim.run
        ~config:(sim_config { opts with backend })
        ~model:false ~schedules ~design t
    in
    { obs_ret = r.Cosim.rtl_ret; obs_prints = r.Cosim.rtl_prints }
  in
  let observe = function
    | Obs_ast ->
        let r = Minic.run_reference ~fuel:opts.fuel src in
        {
          obs_ret = r.Twill_minic.Ast_interp.ret;
          obs_prints = r.Twill_minic.Ast_interp.prints;
        }
    | Obs_ir engine -> interp 0 engine
    | Obs_opt (k, engine) -> interp k engine
    | Obs_rtsim ->
        let s =
          Sim.simulate_threaded ~config:(sim_config opts)
            ~schedules:(table opts.backend) (Lazy.force t)
        in
        { obs_ret = s.Sim.ret; obs_prints = s.Sim.prints }
    | Obs_rtl backend -> cosim backend
  in
  Seq.map (fun s -> (s, outcome (fun () -> observe s))) (List.to_seq stages)

(* How far down the stack to go.  Later stages are much slower (vsim
   co-simulation elaborates and simulates the emitted RTL of every
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

let rank_of_stage = function
  | Obs_ast -> 0
  | Obs_ir _ -> 1
  | Obs_opt _ -> 2
  | Obs_rtsim -> 3
  | Obs_rtl _ -> 4

let rank_of_limit = function
  | L_ast -> 0
  | L_ir -> 1
  | L_opt -> 2
  | L_rtsim -> 3
  | L_vsim -> 4

let stages_for (limit : limit) : stage list =
  List.filter (fun s -> rank_of_stage s <= rank_of_limit limit) all_stages

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
  traps : (string * string) list;  (** stage name, alias-checker message *)
}

let obs_equal (a : observation) (b : observation) =
  Int32.equal a.obs_ret b.obs_ret
  && List.length a.obs_prints = List.length b.obs_prints
  && List.for_all2 Int32.equal a.obs_prints b.obs_prints

(* Folds the walk up to [limit], stopping at the first divergence from
   the AST reference (always the walk's first stage). *)
let check ?(opts = default_options) ?(limit = L_vsim) (src : string) : result =
  let agree = { verdict = Agree; skips = []; errors = []; traps = [] } in
  match walk ~opts (stages_for limit) src () with
  | Seq.Nil -> agree
  | Seq.Cons ((_, (Obs_skip r | Obs_error r | Obs_trap r)), _) ->
      { agree with verdict = Skipped ("ast: " ^ r) }
  | Seq.Cons ((_, Obs_ok baseline), rest) ->
      let rec scan skips errors traps rest =
        let result verdict =
          {
            verdict;
            skips = List.rev skips;
            errors = List.rev errors;
            traps = List.rev traps;
          }
        in
        match rest () with
        | Seq.Nil -> result Agree
        | Seq.Cons ((stage, o), rest) -> (
            let name = stage_name stage in
            match o with
            | Obs_ok o when obs_equal baseline o ->
                scan skips errors traps rest
            | Obs_ok o ->
                result
                  (Diverge
                     { div_stage = name; div_expected = baseline; div_got = o })
            | Obs_skip r -> scan ((name, r) :: skips) errors traps rest
            | Obs_error r -> scan skips ((name, r) :: errors) traps rest
            | Obs_trap r -> scan skips errors ((name, r) :: traps) rest)
      in
      scan [] [] [] rest

(* The shrinker predicate: does this source still expose a divergence
   (anywhere in the stack, up to [limit])? *)
let diverges ?opts ?limit (src : string) : divergence option =
  match (check ?opts ?limit src).verdict with
  | Diverge d -> Some d
  | Agree | Skipped _ -> None

let observation_to_string (o : observation) =
  Printf.sprintf "ret=%ld prints=[%s]" o.obs_ret
    (String.concat ";" (List.map Int32.to_string o.obs_prints))

let divergence_to_string (d : divergence) =
  Printf.sprintf "%s: expected %s, got %s" d.div_stage
    (observation_to_string d.div_expected)
    (observation_to_string d.div_got)
