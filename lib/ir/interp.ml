(* Reference interpreter for the IR.

   Serves three roles: the semantic oracle every transform is tested
   against, the "pure software on Microblaze" baseline timing model (a
   sequential program performs no runtime-primitive operations, so summing
   per-instruction Microblaze costs is exact), and — parameterised with
   queue/semaphore handlers and a block-cost hook — the execution core of
   software and hardware threads inside the runtime simulator.

   Timing has exactly two modes, matching the two kinds of thread: without
   a block-cost hook every instruction and terminator costs its Microblaze
   cycles; with one, instructions are free and the hook prices each block
   at its exit (a hardware thread's scheduled state count, or a profiler
   that only counts).

   Two execution engines share one semantics:

   - [Tree]: the original tree-walking interpreter, kept as the
     differential-testing oracle (it re-resolves everything on every
     executed instruction and computes with [Int32]).
   - [Decoded] (default): a pre-decoded engine.  A one-time per-function
     decode pass flattens each block into arrays of pre-resolved
     instructions: operands become direct constant/register/argument
     accessors (globals fold to their layout addresses), phis are split
     into per-predecessor parallel-move tables, call targets resolve to
     function handles once, and the Microblaze cost of every instruction
     and terminator is pre-computed.

   Value representation.  The decoded engine holds every 32-bit value as
   a native [int] carrying its sign extension ([norm] re-establishes that
   after each wrapping operation), in registers, arguments, return values,
   phi buffers, the memory image, the runtime-primitive handlers and the
   memory hook.  An [int32 array] holds pointers to boxed [int32]s, so
   with it every result written to a register or to memory allocated a
   box, and paid a write barrier ([caml_modify]) whenever the array lived
   in the major heap (the memory image always does); an [int array]
   store costs neither.  [Int32] remains at the boundaries only:
   [run_shared]'s [args] and the [result] are converted once per run, and
   the [Tree] oracle converts at memory, handlers and prints, so the two
   engines check one representation against an independent one.

   Both engines must agree bit-for-bit on [ret]/[prints]/[executed]/
   [cycles]; test/test_diff.ml checks this property on random programs.

   Decoded code is a pure function of the IR *at decode time*: a context
   must be dropped (and rebuilt) if any pass mutates a function after it
   was decoded — [inst.kind], [block.insts] and [block.term] are all
   mutable.  Contexts are therefore created per execution session (one per
   [run]/[run_shared] call, or one shared across the threads of a single
   simulation), never cached across transformations. *)

open Ir

exception Trap of string
exception Out_of_fuel

(* Runtime-primitive handlers: one closure per queue/semaphore id,
   indexed by the ids appearing in the IR.  A caller binds its channel
   state (and, in the runtime simulator, the thread's clock) into each
   closure once, so an operation is one array read and one call.  Queue
   values are sign-extended native ints, like every decoded value. *)
type handlers = {
  produce : (int -> unit) array; (* per queue *)
  consume : (unit -> int) array; (* per queue *)
  sem_give : (int -> unit) array; (* per semaphore; arg = count *)
  sem_take : (int -> unit) array; (* per semaphore; arg = count *)
}

type state = {
  m : modul;
  layout : Layout.t;
  mem : int array;
  cycles : int ref; (* caller-visible via [cycles_cell] *)
  mutable executed : int;
  mutable fuel : int;
  mutable prints : int list; (* reversed *)
  handlers : handlers option; (* None: runtime primitives trap *)
  (* None: Microblaze costs per instruction and per terminator; Some h:
     no per-instruction cost, [h] charged at every block exit *)
  block_cost : (func -> block -> int) option;
  (* invoked on every Load/Store with the evaluated word address, just
     before the access happens — the simulator's memory-bus contention
     point and the runtime alias-checker's probe.  Evaluating an operand
     cannot move a thread's clock, so one firing point serves both. *)
  mem_hook : (func -> inst -> int -> unit) option;
}

(* The caller's channel handlers; a sequential program has none, and a
   runtime primitive outside the simulator is a trap. *)
let handlers_of st =
  match st.handlers with
  | Some h -> h
  | None -> raise (Trap "queue/semaphore op outside the runtime simulator")

(* Microblaze branch/return cost of a block's terminator. *)
let sw_term_cost (b : block) : int =
  match b.term with
  | Ret _ -> Costmodel.sw_ret_cost
  | Br _ | Cond_br _ -> Costmodel.sw_branch_cost

let to_u64 v = Int64.logand (Int64.of_int32 v) 0xFFFFFFFFL

let eval_binop op a b =
  let open Int32 in
  match op with
  | Add -> add a b
  | Sub -> sub a b
  | Mul -> mul a b
  | And -> logand a b
  | Or -> logor a b
  | Xor -> logxor a b
  | Shl -> shift_left a (to_int b land 31)
  | Lshr -> shift_right_logical a (to_int b land 31)
  | Ashr -> shift_right a (to_int b land 31)
  | Sdiv -> if b = 0l then raise (Trap "sdiv by zero") else div a b
  | Srem -> if b = 0l then raise (Trap "srem by zero") else rem a b
  | Udiv ->
      if b = 0l then raise (Trap "udiv by zero")
      else Int64.to_int32 (Int64.div (to_u64 a) (to_u64 b))
  | Urem ->
      if b = 0l then raise (Trap "urem by zero")
      else Int64.to_int32 (Int64.rem (to_u64 a) (to_u64 b))

let eval_icmp op a b =
  let r =
    match op with
    | Eq -> a = b
    | Ne -> a <> b
    | Slt -> Int32.compare a b < 0
    | Sle -> Int32.compare a b <= 0
    | Sgt -> Int32.compare a b > 0
    | Sge -> Int32.compare a b >= 0
    | Ult -> Int64.compare (to_u64 a) (to_u64 b) < 0
    | Ule -> Int64.compare (to_u64 a) (to_u64 b) <= 0
    | Ugt -> Int64.compare (to_u64 a) (to_u64 b) > 0
    | Uge -> Int64.compare (to_u64 a) (to_u64 b) >= 0
  in
  if r then 1l else 0l

(* The same operators on sign-extended native ints (the decoded engine's
   representation).  Operands arrive normalised; a result that can leave
   the 32-bit range is wrapped back by [norm], and the unsigned operators
   read their operands through [u32]. *)
let[@inline] norm x = (x lsl 31) asr 31

let[@inline] u32 x = x land 0xFFFFFFFF

let eval_binop_int op a b =
  match op with
  | Add -> norm (a + b)
  | Sub -> norm (a - b)
  | Mul -> norm (a * b)
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> norm (a lsl (b land 31))
  | Lshr -> norm (u32 a lsr (b land 31))
  | Ashr -> a asr (b land 31)
  | Sdiv -> if b = 0 then raise (Trap "sdiv by zero") else norm (a / b)
  | Srem -> if b = 0 then raise (Trap "srem by zero") else a mod b
  | Udiv -> if b = 0 then raise (Trap "udiv by zero") else norm (u32 a / u32 b)
  | Urem ->
      if b = 0 then raise (Trap "urem by zero") else norm (u32 a mod u32 b)

let eval_icmp_int op (a : int) (b : int) =
  let r =
    match op with
    | Eq -> a = b
    | Ne -> a <> b
    | Slt -> a < b
    | Sle -> a <= b
    | Sgt -> a > b
    | Sge -> a >= b
    | Ult -> u32 a < u32 b
    | Ule -> u32 a <= u32 b
    | Ugt -> u32 a > u32 b
    | Uge -> u32 a >= u32 b
  in
  if r then 1 else 0

let load st (a : int) =
  if a < 0 || a >= Array.length st.mem then
    raise (Trap (Fmt.str "load out of bounds: %d" a))
  else Array.unsafe_get st.mem a

let store st (a : int) (v : int) =
  if a < 0 || a >= Array.length st.mem then
    raise (Trap (Fmt.str "store out of bounds: %d" a))
  else Array.unsafe_set st.mem a v

(* --- the tree-walking oracle -------------------------------------------- *)

(* The oracle computes with [Int32] and converts only where it meets the
   shared state: memory, the memory hook, handlers and prints. *)
let rec exec_func st (f : func) (args : int32 array) : int32 =
  let regs = Array.make (Vec.length f.insts) 0l in
  let eval = function
    | Cst c -> c
    | Reg r -> regs.(r)
    | Argv a -> args.(a)
    | Glob g -> Layout.global_address st.layout g
  in
  let per_inst = Option.is_none st.block_cost in
  let charge i =
    st.executed <- st.executed + 1;
    if per_inst then st.cycles := !(st.cycles) + Costmodel.sw_cost i.kind;
    if st.fuel >= 0 then begin
      st.fuel <- st.fuel - 1;
      if st.fuel <= 0 then raise Out_of_fuel
    end
  in
  let memh i ad =
    match st.mem_hook with Some h -> h f i (Int32.to_int ad) | None -> ()
  in
  let exec_inst i =
    charge i;
    match i.kind with
    | Binop (op, a, b) -> regs.(i.id) <- eval_binop op (eval a) (eval b)
    | Icmp (op, a, b) -> regs.(i.id) <- eval_icmp op (eval a) (eval b)
    | Select (c, a, b) ->
        regs.(i.id) <- (if eval c <> 0l then eval a else eval b)
    | Alloca _ -> regs.(i.id) <- Layout.alloca_address st.layout f.name i.id
    | Gep (base, idx) -> regs.(i.id) <- Int32.add (eval base) (eval idx)
    | Load a ->
        let ad = eval a in
        memh i ad;
        regs.(i.id) <- Int32.of_int (load st (Int32.to_int ad))
    | Store (a, v) ->
        let ad = eval a in
        memh i ad;
        store st (Int32.to_int ad) (Int32.to_int (eval v))
    | Call (name, cargs) ->
        let callee = find_func st.m name in
        regs.(i.id) <- exec_func st callee (Array.map eval cargs)
    | Phi _ -> assert false (* handled at block entry *)
    | Print v -> st.prints <- Int32.to_int (eval v) :: st.prints
    | Produce (q, v) -> (handlers_of st).produce.(q) (Int32.to_int (eval v))
    | Consume q ->
        regs.(i.id) <- Int32.of_int ((handlers_of st).consume.(q) ())
    | Sem_give (s, n) -> (handlers_of st).sem_give.(s) n
    | Sem_take (s, n) -> (handlers_of st).sem_take.(s) n
    | Dead -> ()
  in
  (* Phis of a block read their incoming values simultaneously. *)
  let enter_block b ~from =
    let rec phis = function
      | [] -> []
      | id :: rest -> (
          let i = inst f id in
          match i.kind with
          | Phi incoming ->
              let v =
                match List.assoc_opt from incoming with
                | Some o -> eval o
                | None ->
                    raise
                      (Trap
                         (Fmt.str "phi %%%d in b%d: no incoming for pred b%d"
                            id b.bid from))
              in
              charge i;
              (id, v) :: phis rest
          | _ -> [])
    in
    List.iter (fun (id, v) -> regs.(id) <- v) (phis b.insts)
  in
  let rec run_block bid ~from =
    let b = block f bid in
    if from >= 0 then enter_block b ~from;
    let non_phis = List.filter (fun id -> not (is_phi (inst f id))) b.insts in
    List.iter (fun id -> exec_inst (inst f id)) non_phis;
    let c = match st.block_cost with Some h -> h f b | None -> sw_term_cost b in
    st.cycles := !(st.cycles) + c;
    match b.term with
    | Br b' -> run_block b' ~from:bid
    | Cond_br (c, b1, b2) ->
        run_block (if eval c <> 0l then b1 else b2) ~from:bid
    | Ret None -> 0l
    | Ret (Some v) -> eval v
  in
  run_block f.entry ~from:(-1)

(* --- the pre-decoded engine --------------------------------------------- *)

(* Pre-resolved operand: a global folds to its layout address at decode
   time, so evaluation is a constant, a register read or an argument read
   — no dispatch on the operand's provenance.  Constants are decoded to
   the engine's native-int representation once, here. *)
type dop = Dcst of int | Dreg of int | Darg of int

type dfunc = {
  dsrc_func : func;
  dblocks : dblock array; (* indexed by block id *)
  dentry : int;
  nregs : int;
}

and dblock = {
  dsrc_block : block;
  groups : dgroup array; (* non-phi instructions, program order *)
  nbody : int; (* total non-phi instructions, batched into [executed] *)
  dphis : (int * dphi) array; (* predecessor block id -> parallel moves *)
  phi_ids : int array; (* leading phi ids, for trap messages *)
  dterm : dterm;
  dterm_swc : int; (* pre-computed Microblaze terminator cost *)
}

(* Charging granularity.  A [Grun] is a maximal run of instructions that
   can neither trap nor observe the clock (arithmetic, compares, selects,
   geps, constants — divisions excluded, they trap on zero): its cycle,
   executed and fuel accounting collapses to one batched charge with a
   pre-summed cost, because nothing inside the run can witness the
   intermediate counter values.  Anything observable — memory (traps,
   bus hooks), calls, prints, queue/semaphore primitives, divisions —
   is a [Gone] and is charged exactly as the oracle does, one
   instruction at a time. *)
and dgroup = Grun of dinst array * int (* pre-summed default cost *) | Gone of dinst

(* The parallel moves a given predecessor edge performs.  [pmoves] is the
   longest prefix of the block's phis that have an incoming entry for this
   predecessor; if a phi lacks one, [ptrap] carries the oracle's exact
   trap, raised after the preceding phis were evaluated and charged (the
   oracle writes no register in that case, so neither do we). *)
and dphi = {
  pdst : int array;
  psrc : dop array;
  pbuf : int array; (* scratch: phis read their inputs simultaneously *)
  ptrap : string option;
  (* no phi reads a register another phi of this edge writes (reading
     your own destination is fine) — the simultaneous-move buffer can be
     skipped and the moves performed in one direct pass *)
  pindep : bool;
}

and dinst = {
  isrc : inst; (* original instruction, handed to the memory hooks *)
  dest : int; (* register to write, -1 if none *)
  swc : int; (* pre-computed Microblaze cost *)
  dkind : dexec;
}

and dexec =
  | Xbinop of binop * dop * dop
  | Xbinop_rr of binop * int * int (* both operands registers *)
  | Xbinop_rc of binop * int * int (* register, constant *)
  | Xbinop_cr of binop * int * int (* constant, register *)
  | Xicmp of icmp * dop * dop
  | Xicmp_rr of icmp * int * int
  | Xicmp_rc of icmp * int * int
  | Xselect of dop * dop * dop
  | Xselect_rrr of int * int * int
  | Xconst of int (* pre-resolved alloca address *)
  | Xgep of dop * dop
  | Xgep_rr of int * int
  | Xgep_rc of int * int
  | Xgep_cr of int * int
  | Xload of dop
  | Xload_r of int
  | Xstore of dop * dop
  | Xstore_rr of int * int
  | Xcall of dfunc Lazy.t * dop array
  | Xprint of dop
  | Xproduce of int * dop
  | Xconsume of int
  | Xsem_give of int * int
  | Xsem_take of int * int
  | Xfail of string (* defers a decode-time resolution failure *)
  | Xnop

and dterm =
  | Tbr of int
  | Tcond of dop * int * int
  | Tcond_r of int * int * int (* register condition *)
  | Tret_none
  | Tret of dop

(* Decoded code shared by every thread of one execution session.  Functions
   decode lazily on first call, so code never reached is never decoded. *)
type ctx = {
  cm : modul;
  clayout : Layout.t;
  dfuncs : (string, dfunc) Hashtbl.t;
}

let make_context ~(layout : Layout.t) (m : modul) : ctx =
  { cm = m; clayout = layout; dfuncs = Hashtbl.create 16 }

let decode_operand (layout : Layout.t) = function
  | Cst c -> Dcst (Int32.to_int c)
  | Reg r -> Dreg r
  | Argv a -> Darg a
  | Glob g -> Dcst (Int32.to_int (Layout.global_address layout g))

let rec decode_func (c : ctx) (fname : string) : dfunc =
  match Hashtbl.find_opt c.dfuncs fname with
  | Some d -> d
  | None ->
      let f = find_func c.cm fname in
      let dop = decode_operand c.clayout in
      let decode_inst (i : inst) : dinst =
        let dkind =
          match i.kind with
          | Binop (op, a, b) -> (
              match (dop a, dop b) with
              | Dreg x, Dreg y -> Xbinop_rr (op, x, y)
              | Dreg x, Dcst c -> Xbinop_rc (op, x, c)
              | Dcst c, Dreg y -> Xbinop_cr (op, c, y)
              | da, db -> Xbinop (op, da, db))
          | Icmp (op, a, b) -> (
              match (dop a, dop b) with
              | Dreg x, Dreg y -> Xicmp_rr (op, x, y)
              | Dreg x, Dcst c -> Xicmp_rc (op, x, c)
              | da, db -> Xicmp (op, da, db))
          | Select (cnd, a, b) -> (
              match (dop cnd, dop a, dop b) with
              | Dreg c, Dreg x, Dreg y -> Xselect_rrr (c, x, y)
              | dc, da, db -> Xselect (dc, da, db))
          | Alloca _ -> (
              match Layout.alloca_address c.clayout f.name i.id with
              | a -> Xconst (Int32.to_int a)
              | exception Failure msg -> Xfail msg)
          | Gep (base, idx) -> (
              match (dop base, dop idx) with
              | Dreg x, Dreg y -> Xgep_rr (x, y)
              | Dreg x, Dcst c -> Xgep_rc (x, c)
              | Dcst c, Dreg y -> Xgep_cr (c, y)
              | db, di -> Xgep (db, di))
          | Load a -> (
              match dop a with Dreg x -> Xload_r x | da -> Xload da)
          | Store (a, v) -> (
              match (dop a, dop v) with
              | Dreg x, Dreg y -> Xstore_rr (x, y)
              | da, dv -> Xstore (da, dv))
          | Call (callee, cargs) ->
              Xcall (lazy (decode_func c callee), Array.map dop cargs)
          | Phi _ -> assert false (* split into the per-predecessor tables *)
          | Print v -> Xprint (dop v)
          | Produce (q, v) -> Xproduce (q, dop v)
          | Consume q -> Xconsume q
          | Sem_give (s, n) -> Xsem_give (s, n)
          | Sem_take (s, n) -> Xsem_take (s, n)
          | Dead -> Xnop
        in
        {
          isrc = i;
          dest = (if has_result i.kind then i.id else -1);
          swc = Costmodel.sw_cost i.kind;
          dkind;
        }
      in
      let decode_block (b : block) : dblock =
        (* The oracle resolves only the leading phis at block entry and
           executes every non-phi in order; a (malformed) phi after a
           non-phi is skipped entirely.  Mirror that split exactly. *)
        let rec leading = function
          | id :: rest when is_phi (inst f id) -> id :: leading rest
          | _ -> []
        in
        let phi_ids = Array.of_list (leading b.insts) in
        let body =
          b.insts
          |> List.filter (fun id -> not (is_phi (inst f id)))
          |> List.map (fun id -> decode_inst (inst f id))
        in
        let batchable (di : dinst) =
          match di.dkind with
          | Xbinop ((Sdiv | Srem | Udiv | Urem), _, _)
          | Xbinop_rr ((Sdiv | Srem | Udiv | Urem), _, _)
          | Xbinop_rc ((Sdiv | Srem | Udiv | Urem), _, _)
          | Xbinop_cr ((Sdiv | Srem | Udiv | Urem), _, _) ->
              false
          | Xbinop _ | Xbinop_rr _ | Xbinop_rc _ | Xbinop_cr _ | Xicmp _
          | Xicmp_rr _ | Xicmp_rc _ | Xselect _ | Xselect_rrr _ | Xconst _
          | Xgep _ | Xgep_rr _ | Xgep_rc _ | Xgep_cr _ | Xnop ->
              true
          | Xload _ | Xload_r _ | Xstore _ | Xstore_rr _ | Xcall _ | Xprint _
          | Xproduce _ | Xconsume _ | Xsem_give _ | Xsem_take _ | Xfail _ ->
              false
        in
        let rec group acc run = function
          | di :: rest when batchable di -> group acc (di :: run) rest
          | rest ->
              let acc =
                match run with
                | [] -> acc
                | _ ->
                    let arr = Array.of_list (List.rev run) in
                    let swc = Array.fold_left (fun s i -> s + i.swc) 0 arr in
                    Grun (arr, swc) :: acc
              in
              (match rest with
              | [] -> List.rev acc
              | di :: rest' -> group (Gone di :: acc) [] rest')
        in
        let groups = Array.of_list (group [] [] body) in
        let nbody = List.length body in
        let preds =
          Array.fold_left
            (fun acc id ->
              match (inst f id).kind with
              | Phi incoming ->
                  List.fold_left
                    (fun acc (p, _) -> if List.mem p acc then acc else p :: acc)
                    acc incoming
              | _ -> acc)
            [] phi_ids
        in
        let moves_for p : dphi =
          let dsts = ref [] and srcs = ref [] in
          let trap = ref None in
          (try
             Array.iter
               (fun id ->
                 let i = inst f id in
                 match i.kind with
                 | Phi incoming -> (
                     match List.assoc_opt p incoming with
                     | Some o ->
                         dsts := id :: !dsts;
                         srcs := dop o :: !srcs
                     | None ->
                         trap :=
                           Some
                             (Fmt.str
                                "phi %%%d in b%d: no incoming for pred b%d" id
                                b.bid p);
                         raise Exit)
                 | _ -> assert false)
               phi_ids
           with Exit -> ());
          let pdst = Array.of_list (List.rev !dsts) in
          let psrc = Array.of_list (List.rev !srcs) in
          let pindep =
            Array.for_all
              (fun j ->
                match psrc.(j) with
                | Dreg r ->
                    Array.for_all
                      (fun k -> k = j || pdst.(k) <> r)
                      (Array.init (Array.length pdst) Fun.id)
                | Dcst _ | Darg _ -> true)
              (Array.init (Array.length psrc) Fun.id)
          in
          {
            pdst;
            psrc;
            pbuf = Array.make (Array.length pdst) 0;
            ptrap = !trap;
            pindep;
          }
        in
        {
          dsrc_block = b;
          groups;
          nbody;
          dphis = Array.of_list (List.map (fun p -> (p, moves_for p)) preds);
          phi_ids;
          dterm =
            (match b.term with
            | Br t -> Tbr t
            | Cond_br (cnd, t1, t2) -> (
                match dop cnd with
                | Dreg r -> Tcond_r (r, t1, t2)
                | dc -> Tcond (dc, t1, t2))
            | Ret None -> Tret_none
            | Ret (Some v) -> Tret (dop v));
          dterm_swc = sw_term_cost b;
        }
      in
      let d =
        {
          dsrc_func = f;
          dblocks =
            Array.init (Vec.length f.blocks) (fun bid ->
                decode_block (Vec.get f.blocks bid));
          dentry = f.entry;
          nregs = Vec.length f.insts;
        }
      in
      Hashtbl.replace c.dfuncs fname d;
      d

(* The parallel moves of the edge from block [from] into [b] — a
   top-level function, so entering a phi block allocates nothing. *)
let rec phi_moves (b : dblock) from k =
  if k >= Array.length b.dphis then
    raise
      (Trap
         (Fmt.str "phi %%%d in b%d: no incoming for pred b%d" b.phi_ids.(0)
            b.dsrc_block.bid from))
  else
    let p, m = Array.unsafe_get b.dphis k in
    if p = from then m else phi_moves b from (k + 1)

let rec exec_decoded st (d : dfunc) (args : int array) : int =
  let f = d.dsrc_func in
  let regs = Array.make d.nregs 0 in
  let eval = function
    | Dcst c -> c
    | Dreg r -> Array.unsafe_get regs r
    | Darg a -> args.(a)
  in
  (* [executed] is only ever read after a run completes (no handler or
     hook sees it mid-flight), so it is batched per block and per phi
     prefix rather than counted per instruction.  [charge n swc] accounts
     [n] instructions of pre-summed Microblaze cost [swc] at once: exact
     because nothing inside a [Grun] (or a phi prefix) can trap, emit, or
     read the clock before the run completes — the intermediate counter
     values are unobservable.  Under a block-cost hook no instruction
     costs anything. *)
  let per_inst = Option.is_none st.block_cost in
  let charge n swc =
    if per_inst then st.cycles := !(st.cycles) + swc;
    if st.fuel >= 0 then begin
      st.fuel <- st.fuel - n;
      if st.fuel <= 0 then raise Out_of_fuel
    end
  in
  let enter_phis (b : dblock) ~from =
    let m = phi_moves b from 0 in
    let k = Array.length m.pdst in
    st.executed <- st.executed + k;
    charge k 0 (* Costmodel.sw_cost (Phi _) = 0 *);
    if m.pindep && m.ptrap = None then
      for j = 0 to k - 1 do
        Array.unsafe_set regs
          (Array.unsafe_get m.pdst j)
          (eval (Array.unsafe_get m.psrc j))
      done
    else begin
      for j = 0 to k - 1 do
        m.pbuf.(j) <- eval m.psrc.(j)
      done;
      match m.ptrap with
      | Some msg -> raise (Trap msg)
      | None ->
          for j = 0 to k - 1 do
            Array.unsafe_set regs m.pdst.(j) m.pbuf.(j)
          done
    end
  in
  let exec_op (di : dinst) =
    match di.dkind with
    | Xbinop_rr (op, a, b) ->
        Array.unsafe_set regs di.dest
          (eval_binop_int op (Array.unsafe_get regs a)
             (Array.unsafe_get regs b))
    | Xbinop_rc (op, a, c) ->
        Array.unsafe_set regs di.dest
          (eval_binop_int op (Array.unsafe_get regs a) c)
    | Xbinop_cr (op, c, b) ->
        Array.unsafe_set regs di.dest
          (eval_binop_int op c (Array.unsafe_get regs b))
    | Xicmp_rr (op, a, b) ->
        Array.unsafe_set regs di.dest
          (eval_icmp_int op (Array.unsafe_get regs a) (Array.unsafe_get regs b))
    | Xicmp_rc (op, a, c) ->
        Array.unsafe_set regs di.dest
          (eval_icmp_int op (Array.unsafe_get regs a) c)
    | Xgep_rr (a, b) ->
        Array.unsafe_set regs di.dest
          (norm (Array.unsafe_get regs a + Array.unsafe_get regs b))
    | Xgep_rc (a, c) ->
        Array.unsafe_set regs di.dest (norm (Array.unsafe_get regs a + c))
    | Xgep_cr (c, b) ->
        Array.unsafe_set regs di.dest (norm (c + Array.unsafe_get regs b))
    | Xselect_rrr (c, a, b) ->
        Array.unsafe_set regs di.dest
          (if Array.unsafe_get regs c <> 0 then Array.unsafe_get regs a
           else Array.unsafe_get regs b)
    | Xload_r a ->
        let ad = Array.unsafe_get regs a in
        (match st.mem_hook with Some h -> h f di.isrc ad | None -> ());
        Array.unsafe_set regs di.dest (load st ad)
    | Xstore_rr (a, v) ->
        let ad = Array.unsafe_get regs a in
        (match st.mem_hook with Some h -> h f di.isrc ad | None -> ());
        store st ad (Array.unsafe_get regs v)
    | Xbinop (op, a, b) -> regs.(di.dest) <- eval_binop_int op (eval a) (eval b)
    | Xicmp (op, a, b) -> regs.(di.dest) <- eval_icmp_int op (eval a) (eval b)
    | Xselect (c, a, b) ->
        regs.(di.dest) <- (if eval c <> 0 then eval a else eval b)
    | Xconst v -> regs.(di.dest) <- v
    | Xgep (base, idx) -> regs.(di.dest) <- norm (eval base + eval idx)
    | Xload a ->
        let ad = eval a in
        (match st.mem_hook with Some h -> h f di.isrc ad | None -> ());
        regs.(di.dest) <- load st ad
    | Xstore (a, v) ->
        let ad = eval a in
        (match st.mem_hook with Some h -> h f di.isrc ad | None -> ());
        store st ad (eval v)
    | Xcall (callee, cargs) ->
        regs.(di.dest) <- exec_decoded st (Lazy.force callee) (Array.map eval cargs)
    | Xprint v -> st.prints <- eval v :: st.prints
    | Xproduce (q, v) -> (handlers_of st).produce.(q) (eval v)
    | Xconsume q -> regs.(di.dest) <- (handlers_of st).consume.(q) ()
    | Xsem_give (s, n) -> (handlers_of st).sem_give.(s) n
    | Xsem_take (s, n) -> (handlers_of st).sem_take.(s) n
    | Xfail msg -> failwith msg
    | Xnop -> ()
  in
  let exec_group (g : dgroup) =
    match g with
    | Gone di ->
        charge 1 di.swc;
        exec_op di
    | Grun (run, swc) ->
        charge (Array.length run) swc;
        for k = 0 to Array.length run - 1 do
          exec_op (Array.unsafe_get run k)
        done
  in
  let rec run_block bid ~from =
    let b = Array.unsafe_get d.dblocks bid in
    if from >= 0 && Array.length b.phi_ids > 0 then enter_phis b ~from;
    st.executed <- st.executed + b.nbody;
    let gs = b.groups in
    for k = 0 to Array.length gs - 1 do
      exec_group (Array.unsafe_get gs k)
    done;
    let c =
      match st.block_cost with
      | None -> b.dterm_swc
      | Some h -> h f b.dsrc_block
    in
    st.cycles := !(st.cycles) + c;
    match b.dterm with
    | Tbr t -> run_block t ~from:bid
    | Tcond_r (r, t1, t2) ->
        run_block (if Array.unsafe_get regs r <> 0 then t1 else t2) ~from:bid
    | Tcond (c, t1, t2) -> run_block (if eval c <> 0 then t1 else t2) ~from:bid
    | Tret_none -> 0
    | Tret v -> eval v
  in
  run_block d.dentry ~from:(-1)

(* --- entry points -------------------------------------------------------- *)

type engine = Decoded | Tree

type result = {
  ret : int32;
  cycles : int;
  executed : int;
  prints : int32 list; (* program order *)
}

(* Runs [entry] against caller-provided shared memory — the building block
   for executing DSWP stage functions as concurrent threads over one
   address space (the runtime simulator and RTL co-simulation).  [args]
   and the result are [int32]; the decoded engine converts them here, once
   per run. *)
let run_shared ?(fuel = -1) ~(layout : Layout.t) ~(mem : int array)
    ?handlers ?block_cost ?(engine = Decoded) ?ctx ?mem_hook ?cycles_cell (m : modul)
    ~(entry : string) ~(args : int32 array) : result =
  let st =
    {
      m;
      layout;
      mem;
      cycles = (match cycles_cell with Some c -> c | None -> ref 0);
      executed = 0;
      fuel;
      prints = [];
      handlers;
      block_cost;
      mem_hook;
    }
  in
  let ret =
    match engine with
    | Tree -> exec_func st (find_func m entry) args
    | Decoded ->
        let c =
          match ctx with
          | Some c ->
              if c.cm != m then
                invalid_arg "Interp.run_shared: context decodes another module";
              c
          | None -> make_context ~layout m
        in
        Int32.of_int
          (exec_decoded st (decode_func c entry) (Array.map Int32.to_int args))
  in
  {
    ret;
    cycles = !(st.cycles);
    executed = st.executed;
    prints = List.rev_map Int32.of_int st.prints;
  }

(* Memory size: the static image (globals + allocas) rounded up with
   power-of-two headroom, capped at the historical 4 MB.  The emitted C
   runtime sizes its memory to the image exactly (cemit.ml) and every
   flow is cross-checked bit-identically against it, so no legitimate
   access lands beyond [words_used] — the headroom only preserves the
   silent-read/write behaviour for mildly out-of-range indices.  Sizing
   to the program matters because every simulation run zeroes a fresh
   image: at a fixed 4 MB the memset dominated whole fuzz-oracle
   observations of small programs. *)
let mem_words (layout : Layout.t) : int =
  let cap = 1 lsl 20 in
  let rec up n = if n >= layout.words_used * 4 || n >= cap then n else up (n * 2) in
  up (1 lsl 14)

let fresh_memory (m : modul) : Layout.t * int array =
  let layout = Layout.build m in
  let words = mem_words layout in
  (* the cap is 2^20 words: a larger image does not fit *)
  if layout.words_used > words then
    raise (Trap "memory image larger than memory");
  let mem = Array.make words 0 in
  Layout.init_memory layout m mem;
  (layout, mem)

let run ?(fuel = -1) ?handlers ?block_cost ?(engine = Decoded) (m : modul) :
    result =
  let layout, mem = fresh_memory m in
  run_shared ~fuel ~layout ~mem ?handlers ?block_cost ~engine m ~entry:"main"
    ~args:[||]
