(* Function inlining.  Twill's compatible programs have an acyclic call
   graph, so everything is inlinable; the thesis observes that simple
   benchmarks (MIPS, SHA) end up fully inlined while others keep calls
   that the DSWP stage then pipelines as master/slave thread trees. *)

open Twill_ir.Ir
module Vec = Twill_ir.Vec

let func_size (f : func) = num_live_insts f

(* Inlines the call instruction [call_id] in [caller].  The callee's blocks
   are appended (renumbered), its entry is branched to from the split
   point, and every return feeds a phi in the continuation block. *)
let inline_call (m : modul) (caller : func) (call_id : int) : unit =
  let ci = inst caller call_id in
  let callee_name, args =
    match ci.kind with
    | Call (n, args) -> (n, args)
    | _ -> invalid_arg "inline_call: not a call"
  in
  let callee = find_func m callee_name in
  let bid = ci.block in
  let b = block caller bid in
  (* split: instructions after the call move to a fresh continuation *)
  let rec split before = function
    | [] -> invalid_arg "inline_call: call not found in its block"
    | id :: rest ->
        if id = call_id then (List.rev before, rest) else split (id :: before) rest
  in
  let before, after = split [] b.insts in
  let cont = add_block caller in
  cont.insts <- after;
  List.iter (fun id -> (inst caller id).block <- cont.bid) after;
  cont.term <- b.term;
  b.insts <- before;
  (* phis in b's old successors now come from cont *)
  List.iter
    (fun s -> rewrite_phi_pred caller ~bid:s ~old_pred:bid ~new_pred:cont.bid)
    (succs_of_term cont.term);
  (* copy callee bodies *)
  let block_map = Array.make (Vec.length callee.blocks) (-1) in
  Vec.iter
    (fun (cb : block) ->
      let nb = add_block caller in
      block_map.(cb.bid) <- nb.bid)
    callee.blocks;
  (* Copy order: the reachable blocks in reverse postorder, then the
     unreachable rest in block-id order (kept, not dropped: a phi of a
     reachable block may still name an unreachable predecessor, such as
     the latch of a loop behind a loop with no exit).  Every instruction
     is allocated before any operand is rewritten, because in the copy
     order a use can precede its def — a phi reads its latch value, and
     unreachable code is not dominated by the defs it uses. *)
  let nblocks = Vec.length callee.blocks in
  let order =
    let rpo =
      Cfg.rpo_of ~n:nblocks ~entry:callee.entry ~succs:(fun b -> succs callee b)
    in
    let seen = Array.make nblocks false in
    List.iter (fun b -> seen.(b) <- true) rpo;
    rpo @ List.filter (fun b -> not seen.(b)) (List.init nblocks Fun.id)
  in
  let inst_map = Array.make (Vec.length callee.insts) (-1) in
  List.iter
    (fun cbid ->
      List.iter
        (fun id ->
          inst_map.(id) <-
            append_inst caller block_map.(cbid) (inst callee id).kind)
        (block callee cbid).insts)
    order;
  let map_operand = function
    | Cst c -> Cst c
    | Glob g -> Glob g
    | Argv k -> args.(k)
    | Reg r ->
        if inst_map.(r) < 0 then failwith "inline_call: use before def in copy";
        Reg inst_map.(r)
  in
  let ret_values = ref [] in
  List.iter
    (fun cbid ->
      let cb = block callee cbid in
      List.iter
        (fun id ->
          let i = inst caller inst_map.(id) in
          i.kind <-
            (match i.kind with
            | Phi incoming ->
                Phi
                  (List.map (fun (p, v) -> (block_map.(p), map_operand v)) incoming)
            | k -> map_operands_kind map_operand k))
        cb.insts;
      (block caller block_map.(cbid)).term <-
        (match cb.term with
        | Br t -> Br block_map.(t)
        | Cond_br (c, t, e) ->
            Cond_br (map_operand c, block_map.(t), block_map.(e))
        | Ret v ->
            let v = match v with Some v -> map_operand v | None -> Cst 0l in
            ret_values := (block_map.(cbid), v) :: !ret_values;
            Br cont.bid))
    order;
  (* jump into the copy *)
  b.term <- Br block_map.(callee.entry);
  (* return value: phi over all returning copies *)
  (match !ret_values with
  | [] ->
      (* callee never returns (infinite loop); continuation is dead *)
      replace_all_uses caller ~old_id:call_id ~by:(Cst 0l)
  | [ (_, v) ] -> replace_all_uses caller ~old_id:call_id ~by:v
  | rvs ->
      let phi = new_inst caller (Phi rvs) in
      phi.block <- cont.bid;
      cont.insts <- phi.id :: cont.insts;
      replace_all_uses caller ~old_id:call_id ~by:(Reg phi.id));
  remove_inst caller call_id;
  recompute_cfg caller

(* Inline every call site whose callee is at most [threshold] instructions,
   or all of them when [aggressive].  Returns true if anything changed. *)
let run ?(aggressive = false) ?(threshold = 60) (m : modul) : bool =
  let changed = ref false in
  let continue_ = ref true in
  (* count call sites per callee for the called-once heuristic *)
  let call_counts () =
    let h = Hashtbl.create 16 in
    List.iter
      (fun f ->
        iter_insts f (fun i ->
            match i.kind with
            | Call (n, _) ->
                Hashtbl.replace h n (1 + (try Hashtbl.find h n with Not_found -> 0))
            | _ -> ()))
      m.funcs;
    h
  in
  while !continue_ do
    continue_ := false;
    let counts = call_counts () in
    (try
       List.iter
         (fun f ->
           iter_insts f (fun i ->
               match i.kind with
               | Call (callee, _) ->
                   let cf = find_func m callee in
                   let once = (try Hashtbl.find counts callee with Not_found -> 0) = 1 in
                   if aggressive || once || func_size cf <= threshold then begin
                     inline_call m f i.id;
                     changed := true;
                     continue_ := true;
                     raise Exit
                   end
               | _ -> ()))
         m.funcs
     with Exit -> ())
  done;
  (* drop functions that are no longer referenced *)
  if !changed then begin
    let called = Hashtbl.create 16 in
    Hashtbl.replace called "main" ();
    let rec mark name =
      match List.find_opt (fun f -> f.name = name) m.funcs with
      | None -> ()
      | Some f ->
          iter_insts f (fun i ->
              match i.kind with
              | Call (n, _) when not (Hashtbl.mem called n) ->
                  Hashtbl.replace called n ();
                  mark n
              | _ -> ())
    in
    mark "main";
    m.funcs <- List.filter (fun f -> Hashtbl.mem called f.name) m.funcs
  end;
  !changed
