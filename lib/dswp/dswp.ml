(* Module-level DSWP driver: partitions [main] into pipeline-stage thread
   functions, keeps the remaining (non-inlined) callees as sequential
   functions owned by whichever stage calls them, and protects callees
   reachable from more than one stage with mutual-exclusion semaphores
   (thesis §5.2.1: non-overlapping function execution). *)

open Twill_ir.Ir
module Vec = Twill_ir.Vec
module Alias = Twill_pdg.Alias
module Effects = Twill_pdg.Effects
module Pdg = Twill_pdg.Pdg

type threaded = {
  modul : modul; (* globals + stage functions + callees *)
  stages : string array; (* stage function names, index = stage *)
  master : int; (* index of the software master stage *)
  roles : Partition.role array;
  queues : Threadgen.queue_info array;
  nsems : int;
  sem_callees : (string * int) list; (* callee protected by semaphore id *)
  partition : Partition.t;
  comm_licm_hoists : int; (* condition channels hoisted by ~licm_conds *)
}

let hw_stages (t : threaded) : string list =
  List.filteri (fun s _ -> t.roles.(s) = Partition.Hw) (Array.to_list t.stages)

(* Direct callees of a function. *)
let callees_of (f : func) : string list =
  let acc = ref [] in
  iter_insts f (fun i ->
      match i.kind with
      | Call (n, _) -> if not (List.mem n !acc) then acc := n :: !acc
      | _ -> ());
  !acc

(* Wraps every call to [callee] in [f] with take/give on semaphore [sid]. *)
let protect_calls (f : func) (callee : string) (sid : int) : unit =
  Vec.iter
    (fun (b : block) ->
      let out = ref [] in
      List.iter
        (fun id ->
          let i = inst f id in
          match i.kind with
          | Call (n, _) when n = callee ->
              let take = new_inst f (Sem_take (sid, 1)) in
              take.block <- b.bid;
              let give = new_inst f (Sem_give (sid, 1)) in
              give.block <- b.bid;
              out := give.id :: id :: take.id :: !out
          | _ -> out := id :: !out)
        b.insts;
      b.insts <- List.rev !out)
    f.blocks

(* The width- and split-independent front half of the pipeline: alias
   analysis, effects, the PDG of [main] and the node weights all depend
   only on the module and the profile, so drivers sweeping partition
   configurations compute them once. *)
type prep = { pmodul : modul; pgraph : Pdg.t; pweights : Weights.t }

let prepare ?profile (m : modul) : prep =
  let alias = Alias.build m in
  let eff = Effects.build alias m in
  let main = find_func m "main" in
  let g = Pdg.build alias eff m main in
  let w = Weights.compute ?profile ~modul:m g in
  { pmodul = m; pgraph = g; pweights = w }

let run ?(config = Partition.default_config) ?(queue_depth = 8)
    ?(licm_conds = false) ?profile ?prep (m : modul) : threaded =
  let { pgraph = g; pweights = w; _ } =
    match prep with
    | Some p ->
        if p.pmodul != m then
          invalid_arg "Dswp.run: prep belongs to a different module";
        p
    | None -> prepare ?profile m
  in
  let part = Partition.compute ~config g w in
  let qa = Threadgen.new_qalloc () in
  let gen = Threadgen.generate ~licm_conds part qa ~queue_depth in
  (* clean each stage's pruned skeleton: empty blocks merge or thread away,
     collapsed conditional branches fold — this is what keeps a stage's FSM
     from paying a state per irrelevant basic block *)
  Array.iter
    (fun sf -> ignore (Twill_passes.Simplifycfg.run sf))
    gen.Threadgen.stage_funcs;
  (* deep-copy the callees: [protect_calls] below rewrites call sites with
     semaphore pairs, and sharing the records with the input module would
     leak that mutation into the caller's module — wrong when the caller
     extracts the same module at several widths, and a data race when
     scenarios are evaluated on parallel domains *)
  let callees =
    List.filter (fun f -> f.name <> "main") m.funcs |> List.map copy_func
  in
  let m2 =
    {
      funcs = Array.to_list gen.Threadgen.stage_funcs @ callees;
      globals = m.globals;
    }
  in
  (* stages that may (transitively) execute each callee *)
  let reach : (string, int list) Hashtbl.t = Hashtbl.create 16 in
  let rec mark stage name =
    let prev = try Hashtbl.find reach name with Not_found -> [] in
    if not (List.mem stage prev) then begin
      Hashtbl.replace reach name (stage :: prev);
      List.iter (mark stage) (callees_of (find_func m2 name))
    end
  in
  Array.iteri
    (fun s (sf : func) -> List.iter (mark s) (callees_of sf))
    gen.Threadgen.stage_funcs;
  let nsems = ref 0 in
  let sem_callees = ref [] in
  Hashtbl.iter
    (fun callee stages ->
      if List.length stages >= 2 then begin
        let sid = !nsems in
        incr nsems;
        sem_callees := (callee, sid) :: !sem_callees;
        List.iter (fun f -> protect_calls f callee sid) m2.funcs
      end)
    reach;
  Twill_ir.Verify.check_modul ~require_main:false m2;
  (* defs must dominate uses in every generated stage *)
  Array.iter
    (fun sf -> Twill_passes.Ssa_check.check_func sf)
    gen.Threadgen.stage_funcs;
  {
    modul = m2;
    stages = Array.map (fun (f : func) -> f.name) gen.Threadgen.stage_funcs;
    master = part.Partition.master;
    roles = part.Partition.roles;
    queues =
      Array.of_list (List.rev qa.Threadgen.infos)
      (* reversed: allocation order *);
    nsems = !nsems;
    sem_callees = !sem_callees;
    partition = part;
    comm_licm_hoists = gen.Threadgen.licm_hoists;
  }

let with_queue_depth (t : threaded) (depth : int) : threaded =
  {
    t with
    queues =
      Array.map (fun (q : Threadgen.queue_info) -> { q with depth }) t.queues;
  }
