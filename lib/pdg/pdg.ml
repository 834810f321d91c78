(* Program Dependence Graph (thesis §5.2, second custom pass).

   Nodes are the function's instructions plus one node per block
   terminator.  Edges record that the tail must execute before the head:

   - [Data]: SSA use-def edges, including phi incomings and the values
     consumed by terminators (branch conditions, return values).
   - [Mem]: ordering between may-aliasing memory operations (RAW/WAR/WAW),
     with call sites expanded through their effect summaries.  Pairs
     sharing a loop get edges in both directions (loop-carried ordering),
     which fuses them into one SCC — the conservative subset of the
     thesis's dependence analysis.
   - [Ctrl]: classic Ferrante-Ottenstein-Warren control dependence via
     post-dominance frontiers, from the controlling branch's terminator
     node to every instruction of the dependent block.
   - [Pin]: artificial both-way edges used to force nodes into a single
     SCC: the observable print trace (and anything that prints) forms a
     chain, and the DSWP stage adds more pins when a communication edge
     cannot be placed safely. *)

open Twill_ir.Ir
module Vec = Twill_ir.Vec
module Loops = Twill_passes.Loops
module Dom = Twill_passes.Dom
module Memdep = Twill_ir.Memdep

type ekind = Data | Mem | Ctrl | Pin

type t = {
  func : func;
  ninsts : int;
  nnodes : int; (* ninsts + #blocks (terminator nodes) *)
  mutable succs : (int * ekind) list array;
  mutable preds : (int * ekind) list array;
}

let term_node (g : t) (bid : int) = g.ninsts + bid
let is_term_node (g : t) (n : int) = n >= g.ninsts
let term_block (g : t) (n : int) = n - g.ninsts

let add_edge (g : t) ~(from : int) ~(to_ : int) (k : ekind) =
  if from <> to_ && not (List.mem (to_, k) g.succs.(from)) then begin
    g.succs.(from) <- (to_, k) :: g.succs.(from);
    g.preds.(to_) <- (from, k) :: g.preds.(to_)
  end

let pin_together (g : t) (a : int) (b : int) =
  add_edge g ~from:a ~to_:b Pin;
  add_edge g ~from:b ~to_:a Pin

(* Memory-operation descriptor used for pairwise conflict tests. *)
type memop = {
  node : int;
  mblock : int;
  mpos : int; (* position within block for same-block ordering *)
  addr : operand option; (* None for calls *)
  reads : Memdep.baseset;
  writes : Memdep.baseset;
}

let build (effects : Effects.t) (f : func) : t =
  let alias = effects.Effects.alias in
  recompute_cfg f;
  let ninsts = Vec.length f.insts in
  let nblocks = Vec.length f.blocks in
  let nnodes = ninsts + nblocks in
  let g =
    { func = f; ninsts; nnodes; succs = Array.make nnodes []; preds = Array.make nnodes [] }
  in
  (* --- data edges --- *)
  iter_insts f (fun i ->
      List.iter
        (function Reg r -> add_edge g ~from:r ~to_:i.id Data | _ -> ())
        (operands i));
  Vec.iter
    (fun (b : block) ->
      match b.term with
      | Cond_br (Reg r, _, _) | Ret (Some (Reg r)) ->
          add_edge g ~from:r ~to_:(term_node g b.bid) Data
      | _ -> ())
    f.blocks;
  (* --- control edges (FOW via post-dominance frontiers) --- *)
  let pd = Dom.post_dominators f in
  let n = nblocks in
  let exits = Twill_passes.Cfg.exits f in
  let preds_rev b =
    if b = n then [] (* virtual exit is the root *)
    else succs f b @ (if List.mem b exits then [ n ] else [])
  in
  let df_rev = Dom.frontiers pd ~preds:preds_rev in
  Vec.iter
    (fun (b : block) ->
      List.iter
        (fun ctrl ->
          if ctrl < n then begin
            let src = term_node g ctrl in
            List.iter (fun id -> add_edge g ~from:src ~to_:id Ctrl) b.insts;
            add_edge g ~from:src ~to_:(term_node g b.bid) Ctrl
          end)
        df_rev.(b.bid))
    f.blocks;
  (* --- memory edges --- *)
  let forest = Loops.analyze f in
  let dom = Dom.dominators f in
  let memops = ref [] in
  let none = Memdep.Known [] in
  Vec.iter
    (fun (b : block) ->
      List.iteri
        (fun pos id ->
          let push addr reads writes =
            memops :=
              { node = id; mblock = b.bid; mpos = pos; addr; reads; writes }
              :: !memops
          in
          match (inst f id).kind with
          | Load a ->
              if not (Memdep.loads_read_only alias f a) then
                push (Some a) (Memdep.base_of alias f a) none
          | Store (a, _) -> push (Some a) none (Memdep.base_of alias f a)
          | Call (callee, _) ->
              let s = Effects.summary effects callee in
              if s.Effects.reads <> none || s.Effects.writes <> none then
                push None s.Effects.reads s.Effects.writes
          | _ -> ())
        b.insts)
    f.blocks;
  let memops = Array.of_list !memops in
  let share_loop a b =
    let rec ancestors idx acc =
      if idx < 0 then acc else ancestors forest.Loops.loops.(idx).Loops.parent (idx :: acc)
    in
    let la = forest.Loops.loop_of_block.(a.mblock) in
    let lb = forest.Loops.loop_of_block.(b.mblock) in
    if la < 0 || lb < 0 then false
    else
      let aa = ancestors la [] in
      List.exists (fun x -> List.mem x aa) (ancestors lb [])
  in
  let conflict a b =
    (* at least one write; regions overlap (with same-object constant-index
       disambiguation when both are plain addresses) *)
    match (a.addr, b.addr) with
    | Some x, Some y ->
        (* precise pairwise test *)
        (a.writes <> none || b.writes <> none) && Memdep.may_alias alias f x y
    | _ ->
        Memdep.overlap a.writes b.writes
        || Memdep.overlap a.writes b.reads
        || Memdep.overlap a.reads b.writes
  in
  let nmem = Array.length memops in
  for x = 0 to nmem - 1 do
    for y = x + 1 to nmem - 1 do
      let a = memops.(x) and b = memops.(y) in
      if conflict a b then begin
        let fwd p q = add_edge g ~from:p.node ~to_:q.node Mem in
        (* a call's internal memory traffic cannot be synchronised by the
           same-point token scheme, so call-involved conflicts are pinned
           into one SCC (the call then runs wholly inside one thread) *)
        if a.addr = None || b.addr = None then begin fwd a b; fwd b a end
        else if a.mblock = b.mblock then begin
          if a.mpos < b.mpos then fwd a b else fwd b a;
          if share_loop a b then begin fwd a b; fwd b a end
        end
        else if Dom.strictly_dominates dom a.mblock b.mblock then begin
          fwd a b;
          if share_loop a b then fwd b a
        end
        else if Dom.strictly_dominates dom b.mblock a.mblock then begin
          fwd b a;
          if share_loop a b then fwd a b
        end
        else begin
          (* incomparable blocks: conservative both ways *)
          fwd a b;
          fwd b a
        end
      end
    done
  done;
  (* --- print-trace chain: the observable output is ordered, so printing
     nodes are pinned into one SCC and stay on one thread --- *)
  let printers = ref [] in
  iter_insts f (fun i ->
      match i.kind with
      | Print _ -> printers := i.id :: !printers
      | Call (callee, _) when (Effects.summary effects callee).Effects.prints ->
          printers := i.id :: !printers
      | _ -> ());
  (match !printers with
  | [] | [ _ ] -> ()
  | first :: rest -> List.iter (fun p -> pin_together g first p) rest);
  g

(* All nodes reachable in the underlying function (live instructions plus
   terminators of reachable blocks). *)
let live_nodes (g : t) : int list =
  let f = g.func in
  let acc = ref [] in
  Vec.iter
    (fun (b : block) ->
      acc := term_node g b.bid :: !acc;
      List.iter (fun id -> acc := id :: !acc) b.insts)
    f.blocks;
  List.rev !acc

let node_name (g : t) (n : int) : string =
  if is_term_node g n then Printf.sprintf "T(b%d)" (term_block g n)
  else Printf.sprintf "%%%d" n

let pp ppf (g : t) =
  List.iter
    (fun n ->
      List.iter
        (fun (s, k) ->
          let kind =
            match k with Data -> "data" | Mem -> "mem" | Ctrl -> "ctrl" | Pin -> "pin"
          in
          Fmt.pf ppf "%s -[%s]-> %s@." (node_name g n) kind (node_name g s))
        g.succs.(n))
    (live_nodes g)
