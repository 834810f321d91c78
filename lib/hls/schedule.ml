(* LegUp-substitute operation scheduler.

   Produces, per basic block, a resource-constrained list schedule
   (states = clock cycles of the generated FSM) and, for eligible
   single-block innermost loops, an iterative-modulo-scheduling initiation
   interval.  The runtime simulator replays these schedules to obtain
   hardware-thread timing; the area model derives functional-unit counts
   from the same schedule. *)

open Twill_ir.Ir
module Vec = Twill_ir.Vec
module Costmodel = Twill_ir.Costmodel

type resources = {
  alu : int; (* adders / logic / compares / geps / selects *)
  mul : int;
  div : int;
  shift : int; (* barrel shifters *)
  mem : int; (* memory-bus ports *)
  queue : int; (* runtime-interface call slots: one per cycle (§4.4) *)
}

let default_resources = { alu = 4; mul = 2; div = 1; shift = 2; mem = 1; queue = 1 }

(* Which RTL lowering the schedule feeds.  [Fsm] is the LegUp-style
   monolithic FSM-with-datapath: a resource-constrained list schedule
   shared by one central controller.  [Dataflow] is the elastic template
   (one latency-insensitive stage per basic block, valid/ready channels
   between stages): stages do not share functional units with each
   other's states, so the schedule is a resource-free ASAP placement —
   only data dependences, chaining depth and the per-domain ordering
   chains (one memory port, one runtime-call slot) constrain it. *)
type backend = Fsm | Dataflow

let backend_name = function Fsm -> "fsm" | Dataflow -> "dataflow"
let all_backends = [ Fsm; Dataflow ]

type res_class = Calu | Cmul | Cdiv | Cshift | Cmem | Cqueue | Cfree

let class_of_kind = function
  | Binop (Mul, _, _) -> Cmul
  | Binop ((Sdiv | Udiv | Srem | Urem), _, _) -> Cdiv
  | Binop ((Shl | Lshr | Ashr), _, _) -> Cshift
  | Binop _ | Icmp _ | Select _ | Gep _ -> Calu
  | Load _ | Store _ -> Cmem
  | Produce _ | Consume _ | Sem_give _ | Sem_take _ | Print _ -> Cqueue
  | Call _ -> Cqueue (* occupies the interface slot to start the sub-FSM *)
  | Phi _ | Alloca _ | Dead -> Cfree

let units res = function
  | Calu -> res.alu
  | Cmul -> res.mul
  | Cdiv -> res.div
  | Cshift -> res.shift
  | Cmem -> res.mem
  | Cqueue -> res.queue
  | Cfree -> max_int

let latency_of_kind k =
  match class_of_kind k with
  | Cfree -> 0
  | _ -> max 1 (Costmodel.hw_cost k).Costmodel.latency

(* LegUp chains cheap combinational operations within one state; at
   100 MHz on a Virtex-5 a handful of LUT levels fit comfortably. *)
let chainable k =
  match class_of_kind k with
  | Calu | Cshift -> true
  | Cmul | Cdiv | Cmem | Cqueue | Cfree -> false

let max_chain_depth = 4

type t = {
  nstates : int array; (* per block: schedule length (>= 1) *)
  start_arr : int array; (* inst id -> start state; -1 = unscheduled *)
  ii : int array; (* per block: initiation interval, 0 = not pipelined *)
  (* peak per-class concurrency across the whole function, for binding *)
  peak : (res_class * int) list;
  total_states : int;
}

(* Side-effecting operations keep program order within their own bus
   domain: memory operations among themselves (one memory-bus port) and
   runtime-interface calls among themselves (one call per cycle, §4.4).
   Calls serialise against both.  Cross-domain reordering only affects
   timing, never values — the interpreter executes in program order. *)
type order_chain = Omem | Oqueue | Oboth | Onone

let order_chain_of k =
  match k with
  | Load _ | Store _ -> Omem
  | Print _ | Produce _ | Consume _ | Sem_give _ | Sem_take _ -> Oqueue
  | Call _ -> Oboth
  | _ -> Onone

(* Memory banking splits the one total memory ordering chain into one
   chain (and one set of [res.mem] ports) per bank.  [bank_of_id] is the
   static bank of each access (Memdep.bank_table): [Some b] chains only
   against bank [b]; [None] (may touch several banks — or a call, which
   reaches memory through its callee) conservatively joins every bank's
   chain and occupies a port in every bank.  With [nbanks = 1] the
   schedule is identical to the unbanked one. *)
type banking = { nbanks : int; bank_of_id : int -> int option }

let schedule ?(res = default_resources) ?(modulo = true) ?(backend = Fsm)
    ?banking (f : func) : t =
  let nb = match banking with Some b -> max 1 b.nbanks | None -> 1 in
  let bank_of id = match banking with
    | None -> Some 0
    | Some b -> (
        match b.bank_of_id id with
        | Some k when k >= 0 && k < nb -> Some k
        | _ -> None)
  in
  let start_arr = Array.make (Vec.length f.insts) (-1) in
  let nstates = Array.make (Vec.length f.blocks) 1 in
  let ii = Array.make (Vec.length f.blocks) 0 in
  (* global peak concurrency bookkeeping *)
  let peak = Hashtbl.create 8 in
  let bump_peak cls n =
    let cur = try Hashtbl.find peak cls with Not_found -> 0 in
    if n > cur then Hashtbl.replace peak cls n
  in
  let forest = Twill_passes.Loops.analyze f in
  Vec.iter
    (fun (b : block) ->
      let ids = Array.of_list b.insts in
      (* usage.(state) per (class, bank), growable; non-memory classes
         always use bank 0 *)
      let usage : (res_class * int, int array ref) Hashtbl.t =
        Hashtbl.create 8
      in
      let used cls bk s =
        match Hashtbl.find_opt usage (cls, bk) with
        | Some a when s < Array.length !a -> !a.(s)
        | _ -> 0
      in
      let use cls bk s =
        let a =
          match Hashtbl.find_opt usage (cls, bk) with
          | Some a -> a
          | None ->
              let a = ref (Array.make 16 0) in
              Hashtbl.replace usage (cls, bk) a;
              a
        in
        if s >= Array.length !a then begin
          let bigger = Array.make (max (s + 1) (2 * Array.length !a)) 0 in
          Array.blit !a 0 bigger 0 (Array.length !a);
          a := bigger
        end;
        !a.(s) <- !a.(s) + 1;
        bump_peak cls !a.(s)
      in
      let in_block = Hashtbl.create 16 in
      Array.iter (fun id -> Hashtbl.replace in_block id ()) ids;
      (* availability as (state, chain level): chainable results can feed
         further chainable ops in the same state up to [max_chain_depth] *)
      let avail : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
      let finish = ref 1 in
      let last_mem_end = Array.make nb 0 in
      let all_mem_end () = Array.fold_left max 0 last_mem_end in
      let last_queue_end = ref 0 in
      Array.iter
        (fun id ->
          let i = inst f id in
          let k = i.kind in
          let cls = class_of_kind k in
          let lat = latency_of_kind k in
          let chain = chainable k in
          let oc = order_chain_of k in
          (* static bank of a memory access; None joins every bank *)
          let mbank = if cls = Cmem then bank_of id else None in
          (* earliest (state, level) this op may start at, lexicographic *)
          let later (s1, l1) (s2, l2) =
            if s1 <> s2 then if s1 > s2 then (s1, l1) else (s2, l2)
            else (s1, max l1 l2)
          in
          let dep_state, dep_level =
            List.fold_left
              (fun acc o ->
                match o with
                | Reg r when Hashtbl.mem in_block r -> (
                    match Hashtbl.find_opt avail r with
                    | Some (s, l) ->
                        if chain then later acc (s, l)
                        else
                          (* a non-chainable user waits for the chain's
                             state to close *)
                          later acc ((if l > 0 then s + 1 else s), 0)
                    | None -> acc)
                | _ -> acc)
              (0, 0) (operands i)
          in
          let dep_state, dep_level =
            if chain && dep_level >= max_chain_depth then (dep_state + 1, 0)
            else (dep_state, if chain then dep_level else 0)
          in
          let order_floor =
            match oc with
            | Omem -> (
                match mbank with
                | Some b -> last_mem_end.(b)
                | None -> all_mem_end ())
            | Oqueue -> !last_queue_end
            | Oboth -> max (all_mem_end ()) !last_queue_end
            | Onone -> 0
          in
          let dep_state, dep_level =
            if order_floor > dep_state then (order_floor, 0)
            else (dep_state, dep_level)
          in
          (* first state with a free unit; moving states resets the chain.
             The dataflow backend binds units per stage, so placement is
             unconstrained (ASAP) and [use] only records concurrency for
             the binding-driven area model. *)
          let s = ref dep_state in
          let level = ref dep_level in
          let cap =
            match backend with Fsm -> units res cls | Dataflow -> max_int
          in
          let blocked st =
            match (cls, mbank) with
            | Cmem, None ->
                (* may touch any bank: needs a free port in each *)
                let hit = ref false in
                for bk = 0 to nb - 1 do
                  if used Cmem bk st >= cap then hit := true
                done;
                !hit
            | Cmem, Some b -> used Cmem b st >= cap
            | _ -> used cls 0 st >= cap
          in
          if cap <> max_int then
            while blocked !s do
              incr s;
              level := 0
            done;
          (if cls <> Cfree then
             match (cls, mbank) with
             | Cmem, None ->
                 for bk = 0 to nb - 1 do
                   use Cmem bk !s
                 done
             | Cmem, Some b -> use Cmem b !s
             | _ -> use cls 0 !s);
          start_arr.(id) <- !s;
          Hashtbl.replace avail id
            (if chain then (!s, !level + 1) else (!s + lat, 0));
          (match oc with
          | Omem -> (
              match mbank with
              | Some b -> last_mem_end.(b) <- !s + lat
              | None ->
                  for bk = 0 to nb - 1 do
                    last_mem_end.(bk) <- !s + lat
                  done)
          | Oqueue -> last_queue_end := !s + lat
          | Oboth ->
              for bk = 0 to nb - 1 do
                last_mem_end.(bk) <- !s + lat
              done;
              last_queue_end := !s + lat
          | Onone -> ());
          finish := max !finish (!s + if chain then 1 else lat))
        ids;
      nstates.(b.bid) <- max 1 !finish;
      (* modulo scheduling for single-block innermost loops (header = latch)
         without calls (thesis: iterative modulo scheduling in LegUp) *)
      if modulo && List.mem b.bid (succs_of_term b.term) then begin
        let has_call =
          Array.exists (fun id -> match (inst f id).kind with Call _ -> true | _ -> false) ids
        in
        let lidx = forest.Twill_passes.Loops.loop_of_block.(b.bid) in
        let single_block_loop =
          lidx >= 0
          && forest.Twill_passes.Loops.loops.(lidx).Twill_passes.Loops.body = [ b.bid ]
        in
        if (not has_call) && single_block_loop then begin
          (* ResMII: the serial divider is busy for its full latency; the
             other units issue one operation per cycle *)
          let busy_of cls = match cls with Cdiv -> 13 | _ -> 1 in
          (* per (class, bank): memory pressure counts against each
             bank's own ports, so provably-spread accesses no longer
             floor the II together *)
          let counts = Hashtbl.create 8 in
          let count key n =
            Hashtbl.replace counts key
              (n + (try Hashtbl.find counts key with Not_found -> 0))
          in
          Array.iter
            (fun id ->
              let cls = class_of_kind (inst f id).kind in
              if cls <> Cfree then
                if cls = Cmem then (
                  match bank_of id with
                  | Some b -> count (Cmem, b) (busy_of cls)
                  | None ->
                      for bk = 0 to nb - 1 do
                        count (Cmem, bk) (busy_of cls)
                      done)
                else count (cls, 0) (busy_of cls))
            ids;
          (* Elastic stages bind their own ALUs/multipliers/dividers, so
             only the module-shared domains (the per-bank memory ports,
             one runtime-call slot) constrain the dataflow II. *)
          let res_mii =
            Hashtbl.fold
              (fun (cls, _) c acc ->
                let shared =
                  match backend with
                  | Fsm -> true
                  | Dataflow -> cls = Cmem || cls = Cqueue
                in
                let u = units res cls in
                if (not shared) || u = max_int then acc
                else max acc ((c + u - 1) / u))
              counts 0
          in
          (* loop-carried memory recurrences: a store whose address operand
             is syntactically identical to an earlier load's (same scalar
             cell every iteration, e.g. a global accumulator) forces the
             next iteration's load to wait for this store.  Identical
             addresses live in the same bank, so this constraint is
             per-bank by construction — banking never relaxes it. *)
          let mem_mii = ref 1 in
          Array.iter
            (fun sid ->
              match (inst f sid).kind with
              | Store (sa, _) ->
                  Array.iter
                    (fun lid ->
                      match (inst f lid).kind with
                      | Load la when la = sa ->
                          (* both are in this block, so both are scheduled *)
                          mem_mii :=
                            max !mem_mii (start_arr.(sid) - start_arr.(lid) + 1)
                      | _ -> ())
                    ids
              | _ -> ())
            ids;
          let res_mii = max res_mii !mem_mii in
          (* RecMII: longest latency chain from a phi to its loop-carried
             input (dependence distance 1) *)
          let rec chain_to target seen id =
            if id = target then Some 0
            else if List.mem id seen then None
            else
              let i = inst f id in
              List.fold_left
                (fun acc o ->
                  match o with
                  | Reg r when Hashtbl.mem in_block r && not (is_phi (inst f r)) -> (
                      match chain_to target (id :: seen) r with
                      | Some l ->
                          let total = l + latency_of_kind (inst f r).kind in
                          Some (match acc with Some a -> max a total | None -> total)
                      | None -> acc)
                  | _ -> acc)
                None (operands i)
          in
          let rec_mii =
            Array.fold_left
              (fun acc id ->
                let i = inst f id in
                match i.kind with
                | Phi incoming ->
                    List.fold_left
                      (fun acc (_, v) ->
                        match v with
                        | Reg r when Hashtbl.mem in_block r -> (
                            match chain_to id [] r with
                            | Some l -> max acc (l + latency_of_kind (inst f r).kind)
                            | None -> acc)
                        | _ -> acc)
                      acc incoming
                | _ -> acc)
              1 ids
          in
          let candidate = max 1 (max res_mii rec_mii) in
          if candidate < nstates.(b.bid) then ii.(b.bid) <- candidate
        end
      end)
    f.blocks;
  let total_states = Array.fold_left ( + ) 0 nstates in
  {
    nstates;
    start_arr;
    ii;
    peak = Hashtbl.fold (fun k v acc -> (k, v) :: acc) peak [];
    total_states;
  }

(* --- a design's schedule table ---------------------------------------- *)

module Memdep = Twill_ir.Memdep
module Smap = Map.Make (String)

(* The one place a [banking] is built from a plan. *)
let banking_of_plan (plan : Memdep.plan) (f : func) : banking =
  let tbl = Memdep.bank_table plan f in
  {
    nbanks = plan.Memdep.pn;
    bank_of_id =
      (fun id -> if id >= 0 && id < Array.length tbl then tbl.(id) else None);
  }

(* Depth-first from each root in turn, each function once. *)
let reachable (m : modul) (roots : string list) : string list =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let rec go name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.replace seen name ();
      order := name :: !order;
      iter_insts (find_func m name) (fun i ->
          match i.kind with Call (n, _) -> go n | _ -> ())
    end
  in
  List.iter go roots;
  List.rev !order

(* The design value: its schedules, the backend and bank count they were
   built for and, when banked, the one plan they were banked by.  Built
   eagerly and immutable, so parallel domains may share one. *)
type table = {
  backend : backend;
  mem_banks : int;
  plan : Memdep.plan option;
  scheds : t Smap.t;
}

let table ~backend ~mem_banks (m : modul) (roots : string list) : table =
  let mem_banks = max 1 mem_banks in
  let plan =
    if mem_banks = 1 then None
    else Some (Memdep.plan_of_module m ~banks:mem_banks)
  in
  let add acc name =
    let f = find_func m name in
    let banking = Option.map (fun p -> banking_of_plan p f) plan in
    Smap.add name (schedule ~backend ?banking f) acc
  in
  let scheds = List.fold_left add Smap.empty (reachable m roots) in
  { backend; mem_banks; plan; scheds }

let of_threaded ~backend ~mem_banks (t : Twill_dswp.Dswp.threaded) : table =
  table ~backend ~mem_banks t.Twill_dswp.Dswp.modul (Twill_dswp.Dswp.hw_stages t)

let find (tbl : table) name =
  try Smap.find name tbl.scheds
  with Not_found -> invalid_arg ("Schedule.find: no schedule for " ^ name)

let bindings (tbl : table) : (string * t) list = Smap.bindings tbl.scheds
let backend (tbl : table) = tbl.backend
let mem_banks (tbl : table) = tbl.mem_banks
let plan (tbl : table) = tbl.plan

(* Kept only for benchmark/layers.ml: nothing is memoised any more. *)
let cached = schedule
let clear_cache () = ()
