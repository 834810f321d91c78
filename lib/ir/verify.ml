(* Structural IR well-formedness checks.  Dominance-based SSA validity is
   checked in twill_passes (it needs the dominator tree). *)

open Ir

exception Invalid of string

let fail fmt = Fmt.kstr (fun s -> raise (Invalid s)) fmt

let check_func (m : modul) (f : func) =
  if Vec.length f.blocks = 0 then fail "%s: no blocks" f.name;
  (* validate terminators before recompute_cfg walks successors *)
  Vec.iter
    (fun (b : block) ->
      List.iter
        (fun s ->
          if s < 0 || s >= Vec.length f.blocks then
            fail "%s: b%d branches to unknown b%d" f.name b.bid s)
        (succs_of_term b.term);
      let check_term_operand o =
        match o with
        | Reg r ->
            if r < 0 || r >= Vec.length f.insts then
              fail "%s: terminator of b%d references out-of-range %%%d" f.name
                b.bid r;
            let d = inst f r in
            if d.kind = Dead || d.block < 0 then
              fail "%s: terminator of b%d uses dead %%%d" f.name b.bid r;
            if not (has_result d.kind) then
              fail "%s: terminator of b%d uses value-less %%%d" f.name b.bid r
        | Cst _ | Argv _ | Glob _ -> ()
      in
      match b.term with
      | Cond_br (c, _, _) -> check_term_operand c
      | Ret (Some v) -> check_term_operand v
      | Br _ | Ret None -> ())
    f.blocks;
  recompute_cfg f;
  if f.entry < 0 || f.entry >= Vec.length f.blocks then
    fail "%s: bad entry block" f.name;
  if (block f f.entry).preds <> [] then
    fail "%s: entry block has predecessors" f.name;
  Vec.iter
    (fun b ->
      (* phis first, then body *)
      let seen_non_phi = ref false in
      List.iter
        (fun id ->
          let i = inst f id in
          if i.block <> b.bid then
            fail "%s: inst %%%d listed in b%d but owned by b%d" f.name id
              b.bid i.block;
          if i.kind = Dead then fail "%s: dead inst %%%d in b%d" f.name id b.bid;
          if is_phi i then begin
            if !seen_non_phi then
              fail "%s: phi %%%d after non-phi in b%d" f.name id b.bid
          end
          else seen_non_phi := true;
          (* operand sanity *)
          List.iter
            (fun o ->
              match o with
              | Reg r ->
                  if r < 0 || r >= Vec.length f.insts then
                    fail "%s: %%%d references out-of-range %%%d" f.name id r;
                  let d = inst f r in
                  if d.kind = Dead then
                    fail "%s: %%%d uses dead %%%d" f.name id r;
                  if not (has_result d.kind) then
                    fail "%s: %%%d uses value-less %%%d" f.name id r;
                  if d.block < 0 then
                    fail "%s: %%%d uses detached %%%d" f.name id r
              | Argv a ->
                  if a < 0 || a >= f.nparams then
                    fail "%s: %%%d uses bad arg %d" f.name id a
              | Glob g ->
                  if not (List.exists (fun gl -> gl.gname = g) m.globals) then
                    fail "%s: %%%d uses unknown global %s" f.name id g
              | Cst _ -> ())
            (operands i);
          (* phi incoming blocks = preds, exactly *)
          match i.kind with
          | Phi incoming ->
              let inblocks = List.sort compare (List.map fst incoming) in
              let preds = List.sort compare b.preds in
              if inblocks <> preds then
                fail "%s: phi %%%d in b%d: incoming %a vs preds %a" f.name id
                  b.bid
                  Fmt.(Dump.list int)
                  inblocks
                  Fmt.(Dump.list int)
                  preds
          | Call (name, args) ->
              let callee = find_func m name in
              if Array.length args <> callee.nparams then
                fail "%s: call to %s with %d args, expected %d" f.name name
                  (Array.length args) callee.nparams
          | _ -> ())
        b.insts;
      List.iter
        (fun s ->
          if s < 0 || s >= Vec.length f.blocks then
            fail "%s: b%d branches to unknown b%d" f.name b.bid s)
        (succs_of_term b.term))
    f.blocks

let check_modul ?(require_main = true) (m : modul) =
  let names = List.map (fun f -> f.name) m.funcs in
  let rec dup = function
    | [] -> ()
    | x :: rest -> if List.mem x rest then fail "duplicate function %s" x else dup rest
  in
  dup names;
  if require_main && not (List.exists (fun f -> f.name = "main") m.funcs) then
    fail "no main function";
  List.iter (fun f -> check_func m f) m.funcs
