(* Memory-disambiguation and banking tests: the dependence oracle is
   conservative against observed execution (it never claims independence
   for accesses that actually collided), the banking plan is a genuine
   bijection whose static bank table is dynamically sound, banked
   schedules respect the per-bank ordering/port contract, both rtsim
   engines stay byte-identical under banking, and the armed runtime
   alias checker rides a 100-case fuzz soak plus every CHStone kernel
   without trapping. *)

open Twill_ir
module F = Twill_fuzz
module Campaign = F.Campaign
module Oracle = F.Oracle
module Sim = Twill_rtsim.Sim
module Schedule = Twill_hls.Schedule
module Chstone = Twill_chstone.Chstone

let check_i32 = Alcotest.testable (fun ppf v -> Fmt.pf ppf "%ld" v) Int32.equal

(* Optimised modules with interesting memory behaviour: a slice of the
   fuzz corpus (fixed seed, so failures replay) plus two real kernels. *)
let corpus () =
  let fuzz =
    List.map
      (fun index ->
        Twill_minic.Ast_pp.program_to_string (F.Gen.program ~seed:13 ~index))
      (List.init 12 Fun.id)
  in
  let ch =
    List.filter_map
      (fun name ->
        Option.map
          (fun (b : Chstone.benchmark) -> b.Chstone.source)
          (List.find_opt
             (fun (b : Chstone.benchmark) -> b.Chstone.name = name)
             Chstone.all))
      [ "adpcm"; "sha" ]
  in
  List.map (fun src -> Twill.compile src) (fuzz @ ch)

(* Run [m] sequentially and record, per touched address, the distinct
   (func, inst) access sites that reached it. *)
let trace_sites m =
  let layout, mem = Interp.fresh_memory m in
  let sites : (int, (Ir.func * Ir.inst) list ref) Hashtbl.t =
    Hashtbl.create 997
  in
  let mem_hook f i addr =
    let l =
      match Hashtbl.find_opt sites addr with
      | Some l -> l
      | None ->
          let l = ref [] in
          Hashtbl.add sites addr l;
          l
    in
    if not (List.exists (fun (f', i') -> f' == f && i' == i) !l) then
      l := (f, i) :: !l
  in
  ignore
    (Interp.run_shared ~fuel:100_000_000 ~layout ~mem ~mem_hook m
       ~entry:"main" ~args:[||]);
  (layout, sites)

(* --- oracle conservativeness vs the interpreter trace ------------------- *)

(* Ground truth: if two access sites touched the same word in a real
   execution, the oracle must not have proved them independent.  (The
   converse — precision — is measured, not required.) *)
let test_oracle_conservative () =
  List.iter
    (fun m ->
      let md = Memdep.build m in
      let _, sites = trace_sites m in
      Hashtbl.iter
        (fun addr l ->
          let rec pairs = function
            | [] -> ()
            | (f1, (i1 : Ir.inst)) :: rest ->
                List.iter
                  (fun (f2, (i2 : Ir.inst)) ->
                    if Memdep.independent md f1 i1 f2 i2 then
                      Alcotest.failf
                        "oracle claims %s#%d and %s#%d independent, but \
                         both touched address %d"
                        f1.Ir.name i1.Ir.id f2.Ir.name i2.Ir.id addr)
                  rest;
                pairs rest
          in
          pairs !l)
        sites)
    (corpus ())

(* The oracle must not be vacuously conservative: on a real kernel it
   proves some access pairs apart (otherwise banking could never split
   an ordering chain and the whole pass is dead weight). *)
let test_oracle_proves_something () =
  let b = List.find (fun b -> b.Chstone.name = "sha") Chstone.all in
  let m = Twill.compile b.Chstone.source in
  let md = Memdep.build m in
  let proven = ref 0 in
  List.iter
    (fun (f : Ir.func) ->
      let accs = ref [] in
      Ir.iter_insts f (fun i ->
          match i.Ir.kind with
          | Ir.Load _ | Ir.Store _ -> accs := i :: !accs
          | _ -> ());
      let rec pairs = function
        | [] -> ()
        | i1 :: rest ->
            List.iter
              (fun i2 -> if Memdep.independent md f i1 f i2 then incr proven)
              rest;
            pairs rest
      in
      pairs !accs)
    m.Ir.funcs;
  Alcotest.(check bool) "proves at least one pair independent" true
    (!proven > 0)

(* --- banking: address-map bijection ------------------------------------- *)

(* [addr <-> (bank, local)] must be a bijection over the whole space the
   simulators can touch — in-image words and the out-of-image tail. *)
let test_banking_bijection () =
  List.iter
    (fun m ->
      let md = Memdep.build m in
      let layout = Layout.build m in
      List.iter
        (fun n ->
          let p = Memdep.plan md layout ~banks:n in
          Alcotest.(check int) "plan bank count" n p.Memdep.pn;
          let seen = Hashtbl.create 4096 in
          for a = 0 to layout.Layout.words_used + 257 do
            let b = Memdep.bank_of_addr p (Int32.of_int a) in
            let l = Memdep.local_of_addr p (Int32.of_int a) in
            if b < 0 || b >= n then
              Alcotest.failf "banks=%d: address %d maps to bank %d" n a b;
            if l < 0 then
              Alcotest.failf "banks=%d: address %d maps to local %d" n a l;
            match Hashtbl.find_opt seen (b, l) with
            | Some a' ->
                Alcotest.failf
                  "banks=%d: addresses %d and %d both map to (%d, %d)" n a'
                  a b l
            | None -> Hashtbl.add seen (b, l) a
          done)
        [ 2; 3; 4 ])
    (corpus ())

(* --- banking: static bank table is dynamically sound -------------------- *)

(* Whenever the plan assigns an access a static bank, every address that
   access evaluates at runtime must land in exactly that bank. *)
let test_bank_table_sound () =
  List.iter
    (fun m ->
      let md = Memdep.build m in
      let layout, mem = Interp.fresh_memory m in
      List.iter
        (fun n ->
          let p = Memdep.plan md layout ~banks:n in
          let tables = Hashtbl.create 7 in
          let table_of (f : Ir.func) =
            match Hashtbl.find_opt tables f.Ir.name with
            | Some t -> t
            | None ->
                let t = Memdep.bank_table p f in
                Hashtbl.add tables f.Ir.name t;
                t
          in
          let mem_hook (f : Ir.func) (i : Ir.inst) addr =
            match (table_of f).(i.Ir.id) with
            | None -> ()
            | Some b ->
                let actual = Memdep.bank_of_addr p (Int32.of_int addr) in
                if actual <> b then
                  Alcotest.failf
                    "banks=%d: %s#%d statically claims bank %d but address \
                     %d lands in bank %d"
                    n f.Ir.name i.Ir.id b addr actual
          in
          ignore
            (Interp.run_shared ~fuel:100_000_000 ~layout ~mem:(Array.copy mem)
               ~mem_hook m ~entry:"main" ~args:[||]))
        [ 2; 4 ])
    (corpus ())

(* --- banked schedules --------------------------------------------------- *)

let banking_of m layout n =
  Schedule.banking_of_plan (Memdep.plan (Memdep.build m) layout ~banks:n)

(* With one bank the banked scheduler must be the identity; with more,
   relaxing the single ordering chain can only shorten blocks, same-bank
   accesses keep their strict order, and conservative (all-banks)
   accesses serialize against every access. *)
let test_schedule_per_bank_invariants () =
  let b = List.find (fun b -> b.Chstone.name = "sha") Chstone.all in
  let m = Twill.compile b.Chstone.source in
  let layout = Layout.build m in
  let banking1 = banking_of m layout 1 and banking4 = banking_of m layout 4 in
  List.iter
    (fun (f : Ir.func) ->
      let plain = Schedule.schedule f in
      let b1 = Schedule.schedule ~banking:(banking1 f) f in
      Alcotest.(check (array int))
        (f.Ir.name ^ ": 1-bank start states identical to unbanked")
        plain.Schedule.start_arr b1.Schedule.start_arr;
      Alcotest.(check (array int))
        (f.Ir.name ^ ": 1-bank nstates identical to unbanked")
        plain.Schedule.nstates b1.Schedule.nstates;
      let bank4 = banking4 f in
      let b4 = Schedule.schedule ~banking:bank4 f in
      Array.iteri
        (fun bid n ->
          if b4.Schedule.nstates.(bid) > n then
            Alcotest.failf "%s block %d: 4-bank schedule longer (%d > %d)"
              f.Ir.name bid b4.Schedule.nstates.(bid) n)
        plain.Schedule.nstates;
      (* per block: same-bank (or conservative) accesses never share a
         start state *)
      Vec.iter
        (fun (blk : Ir.block) ->
          let mems =
            List.filter_map
              (fun id ->
                let i = Ir.inst f id in
                match i.Ir.kind with
                | Ir.Load _ | Ir.Store _ ->
                    Some (id, bank4.Schedule.bank_of_id id)
                | _ -> None)
              blk.Ir.insts
          in
          let rec pairs = function
            | [] -> ()
            | (id1, k1) :: rest ->
                List.iter
                  (fun (id2, k2) ->
                    let conflict =
                      match (k1, k2) with
                      | None, _ | _, None -> true
                      | Some a, Some b -> a = b
                    in
                    if
                      conflict
                      && b4.Schedule.start_arr.(id1)
                         = b4.Schedule.start_arr.(id2)
                    then
                      Alcotest.failf
                        "%s block %d: same-bank accesses #%d and #%d share \
                         start state %d"
                        f.Ir.name blk.Ir.bid id1 id2
                        b4.Schedule.start_arr.(id1))
                  rest;
                pairs rest
          in
          pairs mems)
        f.Ir.blocks)
    m.Ir.funcs

(* --- banked rtsim: engine byte-identity + armed alias checker ----------- *)

let banked_opts banks =
  {
    Twill.default_options with
    Twill.partition =
      { Twill.Partition.default_config with Twill.Partition.nstages = 3 };
    mem_banks = banks;
    check_memdep = true;
  }

let diff_banked (b : Chstone.benchmark) banks =
  let opts = banked_opts banks in
  let m = Twill.compile ~opts b.Chstone.source in
  let t = Twill.extract ~opts m in
  let threads =
    Array.mapi
      (fun s name ->
        {
          Sim.tname = name;
          trole =
            (match t.Twill.Dswp.roles.(s) with
            | Twill.Partition.Sw -> Sim.Sw
            | Twill.Partition.Hw -> Sim.Hw);
          local_memory = false;
        })
      t.Twill.Dswp.stages
  in
  Sim.diff_engines
    ~config:(Twill.sim_config opts)
    ~master:t.Twill.Dswp.master t.Twill.Dswp.modul ~threads
    ~queues:t.Twill.Dswp.queues ~nsems:t.Twill.Dswp.nsems ()

(* Every CHStone kernel, banks 1/2/4, alias checker armed: the two
   engines must produce byte-identical stats (diff_engines raises on any
   field, the per-bank counters included), the result must be
   banking-invariant, and the total granted memory slots must be
   conserved across bank counts (banking moves traffic, never creates or
   drops it). *)
let test_chstone_banked_engines () =
  List.iter
    (fun (b : Chstone.benchmark) ->
      let s1 = diff_banked b 1 in
      let total g = Array.fold_left ( + ) 0 g in
      List.iter
        (fun n ->
          let sn = diff_banked b n in
          Alcotest.(check check_i32)
            (b.Chstone.name ^ ": result banking-invariant")
            s1.Sim.ret sn.Sim.ret;
          Alcotest.(check int)
            (b.Chstone.name ^ ": per-bank counter width")
            n
            (Array.length sn.Sim.mem_bank_grants);
          (* conservative (all-banks) accesses reserve a slot in every
             bank, so splitting can only add grants, never drop any *)
          Alcotest.(check bool)
            (b.Chstone.name ^ ": no granted slots dropped")
            true
            (total sn.Sim.mem_bank_grants >= total s1.Sim.mem_bank_grants);
          Alcotest.(check bool)
            (b.Chstone.name ^ ": banking never slows the pipeline")
            true
            (sn.Sim.cycles <= s1.Sim.cycles))
        [ 2; 4 ])
    Chstone.all

(* The pure-HW baseline keeps its data in local memory, so the
   shared-memory bank count must not touch it: it is simulated and priced
   on the same unbanked schedules whatever [mem_banks] says. *)
let test_pure_hw_unbanked () =
  List.iter
    (fun (b : Chstone.benchmark) ->
      let m = Twill.compile b.Chstone.source in
      let run banks =
        let s =
          Twill.run_pure_hw
            ~opts:{ Twill.default_options with mem_banks = banks } m
        in
        (s.Twill.cycles, s.Twill.area, s.Twill.power_mw)
      in
      Alcotest.(check bool)
        (b.Chstone.name ^ ": 4 banks = 1 bank") true (run 4 = run 1))
    Chstone.all

(* --- the alias checker's clock -------------------------------------------- *)

(* The checker stamps every access with its thread's live clock.  Its
   window rule fires only on a false independence claim, so these
   programs make one on purpose: [a[4]] indexes past [a] onto [b[0]],
   which the oracle, assuming in-bounds indexing, calls a different
   object.  Back to back (a 2-cycle load after the store) the checker
   must trap and report the two software stamps; hundreds of cycles
   apart it must stay quiet.  A second, idle software thread keeps the
   simulation multi-threaded, where a software thread's clock used to
   be read only when the thread finished (every stamp was 0). *)
let alias_src ~near =
  let load = "int r = b[0];" in
  Printf.sprintf
    "int a[4]; int b[4]; int n = 50;\n\
     int main() { int m = n; int i = 4; a[i] = 7; %s int s = 0;\n\
     for (int k = 0; k < m; k++) { s = s + k * k; }\n\
     %s return r + s; }"
    (if near then load else "") (if near then "" else load)

let simulate_checked ~near ~threads engine =
  let m = Twill.compile (alias_src ~near) in
  let idle =
    Ir.find_func
      (Twill_minic.Minic.compile
         "int idle() { return 0; } int main() { return idle(); }")
      "idle"
  in
  m.Ir.funcs <- m.Ir.funcs @ [ idle ];
  let spec tname = { Sim.tname; trole = Sim.Sw; local_memory = false } in
  let layout = Layout.build m in
  Alcotest.(check int32)
    "a[4] aliases b[0]"
    (Int32.add (Layout.global_address layout "a") 4l)
    (Layout.global_address layout "b");
  Sim.simulate
    ~config:{ Sim.default_config with Sim.check_memdep = true }
    ~engine m
    ~threads:(Array.map spec threads)
    ~queues:[||] ~nsems:0 ()

let test_checker_live_clock () =
  List.iter
    (fun engine ->
      List.iter
        (fun threads ->
          let what =
            Printf.sprintf "%s, %d thread(s)" (Sim.engine_name engine)
              (Array.length threads)
          in
          (match simulate_checked ~near:true ~threads engine with
          | _ -> Alcotest.failf "%s: back-to-back alias not trapped" what
          | exception Sim.Alias_violation msg ->
              let re = Str.regexp ".*(cycles \\([0-9]+\\) and \\([0-9]+\\))" in
              if not (Str.string_match re msg 0) then
                Alcotest.failf "%s: unexpected trap %s" what msg;
              let load = int_of_string (Str.matched_group 1 msg) in
              let store = int_of_string (Str.matched_group 2 msg) in
              Alcotest.(check bool) (what ^ ": live store stamp") true (store > 0);
              Alcotest.(check int) (what ^ ": load 2 cycles later") (store + 2) load);
          let s = simulate_checked ~near:false ~threads engine in
          Alcotest.(check check_i32) (what ^ ": far apart, no trap") 40432l s.Sim.ret)
        [ [| "main"; "idle" |]; [| "main" |] ])
    [ Sim.Interpreted; Sim.Compiled ]

(* --- a call chain deeper than any round cap ------------------------------ *)

(* [f70] down to [f0], each passing its array argument one level down
   from two call sites and too large to inline, so the global [g] reaches
   [f0] only after the call-site fixpoint has walked all 71 levels.  A
   fixpoint stopped early leaves the deep arguments pointing nowhere:
   their accesses then claim a static bank that is not [g]'s, which the
   armed checker traps. *)
let deep_chain_src depth =
  let b = Buffer.create 65536 in
  Buffer.add_string b "int g[16];\n";
  for k = 0 to depth do
    Printf.bprintf b "void f%d(int a[], int n) {\n" k;
    for j = 0 to 13 do
      Printf.bprintf b "  a[%d] = (a[%d] ^ (n * %d)) + a[%d];\n"
        ((j mod 7) + 1) ((j mod 5) + 2) (j + 3) ((j mod 3) + 4)
    done;
    if k = 0 then Buffer.add_string b "  a[0] = a[0] + n;\n"
    else
      Printf.bprintf b
        "  if (n > 1000) f%d(a, n - 1); else f%d(a, n + 1);\n" (k - 1) (k - 1);
    Buffer.add_string b "}\n"
  done;
  Printf.bprintf b "int main() { f%d(g, 0); return g[0]; }\n" depth;
  Buffer.contents b

let test_deep_chain () =
  let src = deep_chain_src 70 in
  let opts = { Twill.default_options with mem_banks = 4; check_memdep = true } in
  let m = Twill.compile ~opts src in
  let r = Twill.run_twill_threaded ~opts (Twill.extract ~opts m) in
  Alcotest.(check check_i32)
    "4 banks, checker armed: the reference value"
    (Twill_minic.Minic.run_reference src).Twill_minic.Ast_interp.ret
    r.Twill.scenario.Twill.ret;
  let md = Memdep.build m in
  let f0 = Ir.find_func m "f0" in
  let accesses = ref 0 in
  Ir.iter_insts f0 (fun i ->
      match i.Ir.kind with
      | Ir.Load a | Ir.Store (a, _) ->
          incr accesses;
          Alcotest.(check bool)
            (Printf.sprintf "f0#%d points into g" i.Ir.id)
            true
            (fst (Memdep.addr_info md f0 a) = Memdep.Known [ Memdep.Bglobal "g" ])
      | _ -> ());
  Alcotest.(check bool) "f0 survives with its accesses" true (!accesses > 0)

(* --- banked fuzz soak ---------------------------------------------------- *)

(* 100 random programs through the full banked stack (4 banks, alias
   checker armed, rtsim differential limit): zero divergences, and the
   checker never traps — any optimism in the oracle or the banked
   arbitration shows up here as a repro. *)
let test_banked_fuzz_soak () =
  let s =
    Campaign.run ~opts:(banked_opts 4) ~limit:Oracle.L_rtsim ~seed:42
      ~cases:100 ()
  in
  (match s.Campaign.s_repros with
  | [] -> ()
  | r :: _ ->
      Alcotest.failf "banked stack diverged on case %d: %s"
        r.Campaign.r_case
        (Oracle.divergence_to_string r.Campaign.r_divergence));
  Alcotest.(check bool)
    "most cases produced a verdict" true
    (2 * List.length s.Campaign.s_skipped <= s.Campaign.s_cases)

let suites =
  [
    ( "memdep",
      [
        Alcotest.test_case "oracle is conservative vs interpreter trace"
          `Quick test_oracle_conservative;
        Alcotest.test_case "oracle proves real independence" `Quick
          test_oracle_proves_something;
        Alcotest.test_case "banking address map is a bijection" `Quick
          test_banking_bijection;
        Alcotest.test_case "static bank table is dynamically sound" `Quick
          test_bank_table_sound;
        Alcotest.test_case "per-bank schedule invariants" `Quick
          test_schedule_per_bank_invariants;
        Alcotest.test_case "CHStone banked: engines byte-identical" `Slow
          test_chstone_banked_engines;
        Alcotest.test_case "pure HW ignores the bank count" `Slow
          test_pure_hw_unbanked;
        Alcotest.test_case "alias checker stamps software accesses live"
          `Quick test_checker_live_clock;
        Alcotest.test_case "call-site fixpoint reaches a 71-level chain"
          `Quick test_deep_chain;
        Alcotest.test_case "banked stack preserves behaviour (100-case soak)"
          `Slow test_banked_fuzz_soak;
      ] );
  ]
