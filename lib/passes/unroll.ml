(* Loop unrolling by iterated peeling: innermost loops with a provably
   constant, small trip count are peeled one iteration at a time (each
   peel clones the loop body between the preheader and the header, with
   the header phis resolved to their entry values); constant folding then
   collapses the per-iteration induction values and the empty remainder
   loop.  LegUp unrolls comparable loops before scheduling to expose ILP;
   the pass is off by default here and exercised by the `ablation` bench
   artifact so the pinned experiment numbers stay reproducible. *)

open Twill_ir.Ir
module Vec = Twill_ir.Vec

(* the largest trip count and loop size (instructions) peeled *)
let max_trip = 8
let max_size = 30

(* Computes the trip count of a canonical top-tested counted loop:
   header: i = phi(preheader: c0, latch: inext); cond = icmp op i, n;
   cond_br cond, <inside/exit>; inext = i + s somewhere in the body. *)
let trip_count (f : func) (forest : Loops.forest) (l : Loops.loop) :
    int option =
  let h = block f l.Loops.header in
  match Loops.preheader f l with
  | None -> None
  | Some ph -> (
      match h.term with
      | Cond_br (Reg c, t, e) -> (
          let inside_on_true = List.mem t l.Loops.body in
          let inside_on_false = List.mem e l.Loops.body in
          if inside_on_true = inside_on_false then None
          else
            match (inst f c).kind with
            | Icmp (op, Reg iv, Cst n) -> (
                match (inst f iv).kind with
                | Phi incoming when (inst f iv).block = l.Loops.header -> (
                    let init = List.assoc_opt ph incoming in
                    let carried =
                      List.filter (fun (p, _) -> p <> ph) incoming
                    in
                    match (init, carried) with
                    | Some (Cst c0), [ (_, Reg nxt) ] -> (
                        match (inst f nxt).kind with
                        | Binop (Add, Reg iv', Cst s)
                          when iv' = iv && s <> 0l -> (
                            (* simulate the induction *)
                            let holds v =
                              Twill_ir.Interp.eval_icmp op v n <> 0l
                            in
                            let inside v =
                              if inside_on_true then holds v
                              else not (holds v)
                            in
                            let rec count v k =
                              if k > 64 then None
                              else if inside v then
                                count (Int32.add v s) (k + 1)
                              else Some k
                            in
                            ignore forest;
                            count c0 0)
                        | _ -> None)
                    | _ -> None)
                | _ -> None)
            | _ -> None)
      | _ -> None)

(* Loop-closed SSA for single-exit-target loops: every loop-defined value
   used outside the loop is routed through a phi in the exit block, so
   peeling can extend exit phis uniformly.  Returns false (skip this
   loop) when the loop has several exit targets. *)
let lcssa_single_exit (f : func) (l : Loops.loop) : bool =
  recompute_cfg f;
  match Loops.exit_blocks f l with
  | [] | _ :: _ :: _ -> false
  | [ e ] ->
      let in_loop b = List.mem b l.Loops.body in
      let eb = block f e in
      if List.exists (fun p -> not (in_loop p)) eb.preds then false
      else begin
        (* loop-defined values with uses outside the loop *)
        let outside_used = ref [] in
        let note r =
          let d = inst f r in
          if
            d.block >= 0 && in_loop d.block
            && not (List.mem r !outside_used)
          then outside_used := r :: !outside_used
        in
        iter_insts f (fun i ->
            if not (in_loop i.block) then
              match i.kind with
              | Phi incoming ->
                  (* incoming from loop preds is fine only for the exit
                     block itself; elsewhere the pred is outside anyway *)
                  if i.block <> e then
                    List.iter (function _, Reg r -> note r | _ -> ()) incoming
              | _ ->
                  List.iter (function Reg r -> note r | _ -> ()) (operands i));
        Vec.iter
          (fun (b : block) ->
            if not (in_loop b.bid) then
              match b.term with
              | Cond_br (Reg r, _, _) | Ret (Some (Reg r)) -> note r
              | _ -> ())
          f.blocks;
        List.iter
          (fun r ->
            let p = new_inst f (Phi (List.map (fun pr -> (pr, Reg r)) eb.preds)) in
            p.block <- e;
            eb.insts <- p.id :: eb.insts;
            (* rewrite uses outside the loop, except the new phi *)
            let subst o = match o with Reg x when x = r -> Reg p.id | _ -> o in
            iter_insts f (fun i ->
                if (not (in_loop i.block)) && i.id <> p.id then
                  i.kind <- map_operands_kind subst i.kind);
            Vec.iter
              (fun (b : block) ->
                if not (in_loop b.bid) then
                  match b.term with
                  | Cond_br (c, t, e') -> b.term <- Cond_br (subst c, t, e')
                  | Ret (Some v) -> b.term <- Ret (Some (subst v))
                  | Br _ | Ret None -> ())
              f.blocks)
          !outside_used;
        true
      end

(* Peels one iteration of [l]: the preheader branches into a clone of the
   body with header phis resolved to their entry values; the clone's back
   edge enters the original header, whose phis now flow from the clone. *)
let peel_once (f : func) (l : Loops.loop) (ph : int) : unit =
  let body = l.Loops.body in
  let in_loop b = List.mem b body in
  (* clone blocks *)
  let bmap = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace bmap b (add_block f).bid) body;
  let imap = Hashtbl.create 64 in
  (* header phis resolve to their preheader-incoming values *)
  let header_phis = ref [] in
  List.iter
    (fun id ->
      let i = inst f id in
      match i.kind with
      | Phi incoming -> (
          match List.assoc_opt ph incoming with
          | Some v ->
              header_phis := (id, incoming) :: !header_phis;
              Hashtbl.replace imap id v
          | None -> ())
      | _ -> ())
    (block f l.Loops.header).insts;
  let map_op o =
    match o with
    | Reg r -> ( match Hashtbl.find_opt imap r with Some v -> v | None -> o)
    | _ -> o
  in
  (* copy instructions in RPO restricted to the loop *)
  let order =
    List.filter in_loop
      (Cfg.rpo_of ~n:(Vec.length f.blocks) ~entry:l.Loops.header ~succs:(fun b ->
           List.filter in_loop (succs f b)))
  in
  let cloned_phis = ref [] in
  List.iter
    (fun b ->
      let nb = Hashtbl.find bmap b in
      List.iter
        (fun id ->
          let i = inst f id in
          if Hashtbl.mem imap id then () (* resolved header phi *)
          else begin
            let nid =
              match i.kind with
              | Phi incoming ->
                  (* non-header phi: remap preds/values afterwards *)
                  let nid = append_inst f nb (Phi incoming) in
                  cloned_phis := nid :: !cloned_phis;
                  nid
              | k -> append_inst f nb (map_operands_kind map_op k)
            in
            Hashtbl.replace imap id (Reg nid)
          end)
        (block f b).insts;
      (block f nb).term <-
        (match (block f b).term with
        | Br t ->
            Br (if t = l.Loops.header then l.Loops.header
                else match Hashtbl.find_opt bmap t with Some nt -> nt | None -> t)
        | Cond_br (c, t, e) ->
            let r x =
              if x = l.Loops.header then l.Loops.header
              else match Hashtbl.find_opt bmap x with Some nx -> nx | None -> x
            in
            Cond_br (map_op c, r t, r e)
        | Ret v -> Ret (Option.map map_op v)))
    order;
  (* patch cloned phis *)
  List.iter
    (fun nid ->
      let i = inst f nid in
      match i.kind with
      | Phi incoming ->
          i.kind <-
            Phi
              (List.filter_map
                 (fun (p, v) ->
                   match Hashtbl.find_opt bmap p with
                   | Some np -> Some (np, map_op v)
                   | None -> None)
                 incoming)
      | _ -> assert false)
    !cloned_phis;
  (* the preheader enters the peeled copy *)
  let phb = block f ph in
  (match phb.term with
  | Br t when t = l.Loops.header -> phb.term <- Br (Hashtbl.find bmap l.Loops.header)
  | _ -> ());
  (* original header phis: the entry edge now comes from the clone(s) of
     the latch block(s), carrying the peeled iteration's values *)
  let latches =
    List.filter (fun b -> List.mem l.Loops.header (succs f b)) body
  in
  List.iter
    (fun (pid, incoming) ->
      let i = inst f pid in
      let latch_entries =
        List.filter_map
          (fun (p, v) ->
            if p = ph then None
            else Some (Hashtbl.find bmap p, map_op v))
          incoming
      in
      let kept = List.filter (fun (p, _) -> p <> ph) incoming in
      ignore latches;
      i.kind <- Phi (latch_entries @ kept))
    !header_phis;
  (* exit blocks outside the loop gained clone predecessors: extend phis *)
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          if not (in_loop s) && s <> l.Loops.header then
            List.iter
              (fun id ->
                let i = inst f id in
                match i.kind with
                | Phi incoming -> (
                    match List.assoc_opt b incoming with
                    | Some v ->
                        i.kind <- Phi ((Hashtbl.find bmap b, map_op v) :: incoming)
                    | None -> ())
                | _ -> ())
              (block f s).insts)
        (succs f b))
    body;
  recompute_cfg f

let run (f : func) : bool =
  let changed = ref false in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    (* clean to a fixpoint: folding a peeled copy's constant branches can
       take a constant-fold/simplify alternation *)
    let again = ref true in
    while !again do
      let c1 = Constfold.run f in
      let c2 = Simplifycfg.run f in
      let c3 = Dce.run f in
      again := c1 || c2 || c3
    done;
    let forest = Loops.analyze f in
    (try
       Array.iter
         (fun l ->
           if l.Loops.children = [] then begin
             let size =
               List.fold_left
                 (fun acc b -> acc + List.length (block f b).insts)
                 0 l.Loops.body
             in
             let has_call =
               List.exists
                 (fun b ->
                   List.exists
                     (fun id ->
                       match (inst f id).kind with Call _ -> true | _ -> false)
                     (block f b).insts)
                 l.Loops.body
             in
             if size <= max_size && not has_call then
               match (trip_count f forest l, Loops.preheader f l) with
               | Some trip, Some ph when trip >= 1 && trip <= max_trip ->
                   if lcssa_single_exit f l then begin
                     peel_once f l ph;
                     changed := true;
                     continue_ := true;
                     raise Exit
                   end
               | Some 0, Some ph ->
                   (* never entered: route the preheader straight to the
                      exit; exit phis receive the entry values of the
                      header phis and the dead skeleton gets compacted *)
                   if lcssa_single_exit f l then begin
                     recompute_cfg f;
                     (match Loops.exit_blocks f l with
                     | [ e ] ->
                         let hdr = l.Loops.header in
                         (* entry values of header phis *)
                         let entry_val = Hashtbl.create 8 in
                         List.iter
                           (fun id ->
                             match (inst f id).kind with
                             | Phi incoming -> (
                                 match List.assoc_opt ph incoming with
                                 | Some v -> Hashtbl.replace entry_val id v
                                 | None -> ())
                             | _ -> ())
                           (block f hdr).insts;
                         let map_op o =
                           match o with
                           | Reg r -> (
                               match Hashtbl.find_opt entry_val r with
                               | Some v -> v
                               | None -> o)
                           | _ -> o
                         in
                         List.iter
                           (fun id ->
                             let i = inst f id in
                             match i.kind with
                             | Phi incoming -> (
                                 match List.assoc_opt hdr incoming with
                                 | Some v ->
                                     i.kind <- Phi ((ph, map_op v) :: incoming)
                                 | None -> ())
                             | _ -> ())
                           (block f e).insts;
                         let phb = block f ph in
                         (match phb.term with
                         | Br t when t = hdr -> phb.term <- Br e
                         | _ -> ());
                         recompute_cfg f;
                         ignore (Simplifycfg.run f);
                         changed := true;
                         continue_ := true;
                         raise Exit
                     | _ -> ())
                   end
               | _ -> ()
           end)
         forest.Loops.loops
     with Exit -> ())
  done;
  if !changed then begin
    ignore (Simplifycfg.run f);
    ignore (Constfold.run f);
    ignore (Dce.run f)
  end;
  !changed
