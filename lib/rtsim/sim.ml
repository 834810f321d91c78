(* Cycle-accurate simulator of the Twill runtime architecture (Chapter 4).

   Threads run as cooperative fibers with local clocks (conservative
   Kahn-network simulation: all cross-thread interaction flows through
   FIFO queues, semaphores and ordering tokens, so values are
   deterministic and local clocks only meet at those synchronisation
   points).  Timing model:

   - Software threads (Microblaze): per-instruction costs from
     [Costmodel.sw_cost]; every runtime-primitive operation costs 5 CPU
     cycles through the stream-based processor interface (§4.5) plus
     module-bus arbitration.
   - Hardware threads: per-block state counts from the LegUp-substitute
     scheduler (ILP inside a block is free, as in the FSM), the modulo
     scheduler's II for pipelined single-block loops, loads/stores over
     the memory bus (1 message/cycle), queue operations with the 1/2-cycle
     minimums of §4.3 plus arbitration.
   - Queues: configurable depth and give->visible latency (default 2,
     which also covers the 2-cycle write-update coherency window of
     §4.5); producers stall on full queues exactly like the size+1
     circular buffer described in §4.3.
   - Semaphores: counting, with FIFO-ish grant times (§4.2).

   A software and a hardware thread run the same IR against the same
   queues and semaphores and differ in exactly two ways, which are the
   two hooks the interpreter takes: how a block is timed (Microblaze
   instruction costs, or the schedule's per-block cost through
   [?block_cost]) and whether loads and stores go over the memory bus
   ([?mem_hook]).  Every thread's clock is [cell + stall], where [cell]
   is the interpreter's charged cycles and [stall] the waits the
   runtime primitives and buses imposed.

   Two execution engines share this timing model (the same discipline as
   the interpreter's Tree/Decoded pair and vsim's engine family):

   - [Interpreted] (the oracle): the original spin scheduler.  Each
     channel's handler calls an operation dispatching on the channel id
     over get/set clock closures, hardware block costs look their
     schedule up in the design's schedule table, and every blocked fiber is
     resumed once per scheduler round just to re-check its wait
     condition.
   - [Compiled] (default): one handler builder and one fiber body serve
     both roles.  Runtime-primitive handlers are specialised at
     elaboration into one closure per (thread x channel) — queue state,
     ring buffer, bus, latency and the thread's [cell]/[stall] refs are
     pre-bound.  Queue storage is a preallocated ring (no per-item
     allocation).  Hardware block-cost and memory-bus hooks resolve
     [nstates]/[ii]/[start_arr] into flat per-function arrays at
     elaboration (physical-equality memo, no hashtable and no tuple
     allocation per block exit).  The scheduler parks blocked fibers on
     per-queue/per-semaphore wait lists and only re-runs them when a
     producer/consumer/give touches the channel they wait on.

   The compiled scheduler cycles a ring of thread slots in index order
   and runs every ready thread at its turn; because the interpreted
   run queue is a FIFO that re-enqueues each fiber after every yield,
   both engines resume productive work in the same global order, so bus
   arbitration (which grants in call order) and therefore every stats
   field is byte-identical across engines — [diff_engines] enforces
   exactly that, and the rtsim:engines suite plus the fuzz oracle keep
   it checked. *)

open Effect
open Effect.Deep
open Twill_ir.Ir
module Interp = Twill_ir.Interp
module Costmodel = Twill_ir.Costmodel
module Memdep = Twill_ir.Memdep
module Schedule = Twill_hls.Schedule
module Threadgen = Twill_dswp.Threadgen

type _ Effect.t += Yield : unit Effect.t

exception Deadlock of string
exception Out_of_fuel of string
exception Alias_violation of string

type role = Sw | Hw

type engine = Interpreted | Compiled

let engine_name = function Interpreted -> "interpreted" | Compiled -> "compiled"

type thread_spec = {
  tname : string; (* entry function *)
  trole : role;
  (* pure-LegUp flow: data lives in FPGA BRAMs, no shared memory bus *)
  local_memory : bool;
}

type config = {
  queue_latency : int;
  backend : Schedule.backend; (* RTL lowering whose timing hw threads replay *)
  fuel : int;
  (* memory banks (Memdep.plan): each bank gets its own bus arbiter, and
     hardware threads replay schedules with per-bank ordering chains.
     1 = the single shared memory port (identical to pre-banking) *)
  mem_banks : int;
  (* debug: trap when two accesses the dependence analysis declared
     independent touch the same address within a cycle window *)
  check_memdep : bool;
}

let default_config =
  {
    queue_latency = 2;
    backend = Schedule.Fsm;
    fuel = 300_000_000;
    mem_banks = 1;
    check_memdep = false;
  }

(* Per-channel communication profile, the input of the lib/comm
   optimizer.  Counters are updated with identical arithmetic by both
   engines' handlers (the same contract as every other stats field;
   [stats_mismatch] compares them, so the rtsim:engines suite enforces
   byte-identity).  Histograms are event-sampled: occupancy is recorded
   after every produce (post-push) and consume (post-pop), burst runs
   count maximal chains of operations whose start clock equals the
   previous operation's end clock on the same queue (i.e. back-to-back
   on the producing/consuming thread). *)
type queue_profile = {
  qp_produces : int;
  qp_consumes : int;
  qp_stall_full : int; (* producer cycles waiting for a free slot *)
  qp_stall_empty : int; (* consumer cycles waiting for visibility *)
  qp_bus_waits : int; (* module-bus arbitration cycles of this queue's ops *)
  qp_peak : int; (* high-water occupancy *)
  qp_occ_hist : int array; (* index = occupancy 0..depth, event-sampled *)
  qp_prod_bursts : int array; (* index = run length - 1, last = >= 8 *)
  qp_cons_bursts : int array;
}

type stats = {
  ret : int32;
  prints : int32 list;
  cycles : int; (* makespan over all threads *)
  thread_finish : (string * int) array;
  thread_busy : (string * int) array;
  executed : int;
  queue_peaks : int array;
  queue_profiles : queue_profile array;
  module_bus_waits : int;
  memory_bus_waits : int; (* summed over banks *)
  (* per-bank memory-bus profile: granted slots (occupancy) and
     arbitration wait cycles.  Length = mem_banks; [|_|] when unbanked.
     Updated with identical arithmetic by both engines —
     [stats_mismatch] compares them byte-for-byte. *)
  mem_bank_grants : int array;
  mem_bank_waits : int array;
}

(* What a parked thread is waiting on — carried into the [Deadlock]
   message so a stuck simulation names every blocked thread's channel. *)
type blocked_on =
  | Not_blocked
  | On_queue_full of int
  | On_queue_empty of int
  | On_sem of int * int (* semaphore id, count needed *)

let blocked_on_to_string = function
  | Not_blocked -> "runnable"
  | On_queue_full q -> Printf.sprintf "queue %d full" q
  | On_queue_empty q -> Printf.sprintf "queue %d empty" q
  | On_sem (s, k) -> Printf.sprintf "semaphore %d (needs %d)" s k

(* One deadlock message format shared by both engines: every unfinished
   thread with the channel it blocks on. *)
let deadlock_message (threads : thread_spec array) (finished : bool array)
    (blocked : blocked_on array) : string =
  let parts = ref [] in
  for ti = Array.length threads - 1 downto 0 do
    if not finished.(ti) then
      parts :=
        Printf.sprintf "t%d %s: %s" ti threads.(ti).tname
          (blocked_on_to_string blocked.(ti))
        :: !parts
  done;
  Printf.sprintf "%d thread(s) blocked (%s)"
    (List.length !parts)
    (String.concat "; " !parts)

(* Deterministic cross-thread print merge: the master thread's trace
   first (it carries the program's observable output in every design the
   extractor produces — the print chain is pinned into one SCC), then
   any other printing thread in thread-index order.  When exactly one
   thread prints, this is that thread's trace verbatim, which is the
   program order. *)
let merge_prints ~(master : int) (results : Interp.result option array) :
    int32 list =
  let prints_of ti =
    match results.(ti) with Some r -> r.Interp.prints | None -> []
  in
  let rest = ref [] in
  for ti = Array.length results - 1 downto 0 do
    if ti <> master then
      match prints_of ti with [] -> () | p -> rest := p :: !rest
  done;
  prints_of master @ List.concat !rest

(* --- shared per-simulation state ----------------------------------------- *)

type queue_state = {
  qdepth : int; (* normalized >= 1 at construction *)
  (* interpreted oracle: in-flight items as (value, visible time),
     stored in the straightforward FIFO the original engine used; a
     value is the interpreter's sign-extended native int *)
  items : (int * int) Queue.t;
  (* compiled engine: the same in-flight window as ring buffers indexed
     by counter mod depth — value and visible time of the [qdepth]
     in-flight items, no per-item allocation (values are native ints,
     so a push neither boxes nor pays a write barrier) *)
  ring_val : int array;
  ring_vis : int array;
  (* both engines: consume times of the last [qdepth] pops (the slot a
     producer reuses was freed by the consume [depth] items ago) *)
  pop_time : int array;
  mutable pushed : int;
  mutable popped : int;
  mutable peak : int;
  (* compiled engine: threads parked on this queue *)
  wl_full : int list ref; (* producers waiting for space *)
  wl_empty : int list ref; (* consumers waiting for data *)
  (* burst coalescing (lib/comm): a produce whose start clock equals the
     previous produce's end clock rides the same multi-word bus
     transaction and skips arbitration *)
  allow_burst : bool;
  (* profiling counters; see [queue_profile] *)
  mutable p_produces : int;
  mutable p_consumes : int;
  mutable p_stall_full : int;
  mutable p_stall_empty : int;
  mutable p_bus_waits : int;
  occ_hist : int array;
  prod_bursts : int array;
  cons_bursts : int array;
  mutable p_run : int; (* current produce burst run; 0 = none yet *)
  mutable p_last_end : int; (* end clock of the last produce; -1 = none *)
  mutable c_run : int;
  mutable c_last_end : int;
}

type sem_state = {
  mutable count : int;
  mutable free_at : int;
  wl_sem : int list ref; (* takers waiting for count *)
}

(* Compiled-engine arbitration: [Bus.reserve] with the common case —
   first probe free, map already big enough — peeled into the caller.
   The grant sequence is identical; the fallback handles collisions and
   growth. *)
let[@inline] bus_grab (bus : Bus.t) (t : int) : int =
  let buf = bus.Bus.taken in
  if t < Bytes.length buf && Bytes.unsafe_get buf t = '\000' then begin
    Bytes.unsafe_set buf t '\001';
    bus.Bus.grants <- bus.Bus.grants + 1;
    if t = bus.Bus.low then bus.Bus.low <- t + 1;
    t
  end
  else Bus.reserve bus t

let make_queues (queues : Threadgen.queue_info array) : queue_state array =
  Array.map
    (fun (qi : Threadgen.queue_info) ->
      let qdepth = max 1 qi.Threadgen.depth in
      {
        qdepth;
        items = Queue.create ();
        ring_val = Array.make qdepth 0;
        ring_vis = Array.make qdepth 0;
        pop_time = Array.make qdepth 0;
        pushed = 0;
        popped = 0;
        peak = 0;
        wl_full = ref [];
        wl_empty = ref [];
        allow_burst = qi.Threadgen.burst;
        p_produces = 0;
        p_consumes = 0;
        p_stall_full = 0;
        p_stall_empty = 0;
        p_bus_waits = 0;
        occ_hist = Array.make (qdepth + 1) 0;
        prod_bursts = Array.make 8 0;
        cons_bursts = Array.make 8 0;
        p_run = 0;
        p_last_end = -1;
        c_run = 0;
        c_last_end = -1;
      })
    queues

(* --- per-channel profiling ------------------------------------------------ *)

(* Both engines call these with the same (clk0, clk, grant) triple —
   thread clock at op entry, after the queue-state wait (slot-free /
   visibility), and after arbitration — so the counters are
   byte-identical by the same argument as every other stats field.
   Called after the push/pop counters move, so the sampled occupancy is
   the post-op one. *)

let[@inline] burst_bucket (n : int) : int = if n >= 8 then 7 else n - 1

let[@inline] prof_produce (st : queue_state) ~clk0 ~clk ~grant =
  st.p_produces <- st.p_produces + 1;
  st.p_stall_full <- st.p_stall_full + (clk - clk0);
  st.p_bus_waits <- st.p_bus_waits + (grant - clk);
  let occ = st.pushed - st.popped in
  st.occ_hist.(occ) <- st.occ_hist.(occ) + 1;
  (if clk = st.p_last_end then st.p_run <- st.p_run + 1
   else begin
     (if st.p_run > 0 then
        let i = burst_bucket st.p_run in
        st.prod_bursts.(i) <- st.prod_bursts.(i) + 1);
     st.p_run <- 1
   end);
  st.p_last_end <- grant + 1

let[@inline] prof_consume (st : queue_state) ~clk0 ~clk ~grant =
  st.p_consumes <- st.p_consumes + 1;
  st.p_stall_empty <- st.p_stall_empty + (clk - clk0);
  st.p_bus_waits <- st.p_bus_waits + (grant - clk);
  let occ = st.pushed - st.popped in
  st.occ_hist.(occ) <- st.occ_hist.(occ) + 1;
  (if clk = st.c_last_end then st.c_run <- st.c_run + 1
   else begin
     (if st.c_run > 0 then
        let i = burst_bucket st.c_run in
        st.cons_bursts.(i) <- st.cons_bursts.(i) + 1);
     st.c_run <- 1
   end);
  st.c_last_end <- grant + 1

(* Close the open burst runs (end of simulation) and snapshot. *)
let profile_of (st : queue_state) : queue_profile =
  (if st.p_run > 0 then
     let i = burst_bucket st.p_run in
     st.prod_bursts.(i) <- st.prod_bursts.(i) + 1);
  st.p_run <- 0;
  (if st.c_run > 0 then
     let i = burst_bucket st.c_run in
     st.cons_bursts.(i) <- st.cons_bursts.(i) + 1);
  st.c_run <- 0;
  {
    qp_produces = st.p_produces;
    qp_consumes = st.p_consumes;
    qp_stall_full = st.p_stall_full;
    qp_stall_empty = st.p_stall_empty;
    qp_bus_waits = st.p_bus_waits;
    qp_peak = st.peak;
    qp_occ_hist = Array.copy st.occ_hist;
    qp_prod_bursts = Array.copy st.prod_bursts;
    qp_cons_bursts = Array.copy st.cons_bursts;
  }

let simulate ?(config = default_config) ?(master = 0) ?(engine = Compiled)
    ~schedules (m : modul) ~(threads : thread_spec array)
    ~(queues : Threadgen.queue_info array) ~(nsems : int) () : stats =
  let nbanks = Schedule.mem_banks schedules in
  if
    (config.backend, max 1 config.mem_banks)
    <> (Schedule.backend schedules, nbanks)
  then invalid_arg "Sim.simulate: the table is for another backend or bank count";
  let layout, mem = Interp.fresh_memory m in
  let module_bus = Bus.create "module" in
  (* one arbiter per bank; bank 0 keeps the historic "memory" label so
     the unbanked configuration is bit-identical to the single-bus code *)
  let mem_buses =
    Array.init nbanks (fun k ->
        Bus.create (if k = 0 then "memory" else Printf.sprintf "memory.%d" k))
  in
  let memory_bus = mem_buses.(0) in
  (* the design's banking plan, [Some] exactly when banked *)
  let plan = Schedule.plan schedules in
  let bank_tables : (string, int option array) Hashtbl.t = Hashtbl.create 16 in
  let bank_table_of (f : func) : int option array =
    match Hashtbl.find_opt bank_tables f.name with
    | Some t -> t
    | None ->
        let t = Memdep.bank_table (Option.get plan) f in
        Hashtbl.replace bank_tables f.name t;
        t
  in
  (* static bank of an access, None = may touch any bank *)
  let bank_of_access (f : func) (i : inst) : int option =
    let tbl = bank_table_of f in
    if i.id >= 0 && i.id < Array.length tbl then tbl.(i.id) else None
  in
  let qs = make_queues queues in
  let sems =
    Array.init (max 1 nsems) (fun _ ->
        { count = 1; free_at = 0; wl_sem = ref [] })
  in
  let schedule_of = Schedule.find schedules in
  (* decoded code shared by every thread of this simulation *)
  let ictx = Interp.make_context ~layout m in
  (* per-thread execution contexts *)
  let n = Array.length threads in
  let clocks = Array.make n 0 in
  let busys = Array.make n 0 in
  let results : Interp.result option array = Array.make n None in
  let finished = Array.make n false in
  let blocked = Array.make n Not_blocked in
  let nfinished = ref 0 in
  let finish ti r =
    results.(ti) <- Some r;
    finished.(ti) <- true;
    incr nfinished
  in
  let out_of_fuel ti =
    Out_of_fuel
      (Printf.sprintf "thread t%d %s exhausted the %d-instruction budget" ti
         threads.(ti).tname config.fuel)
  in
  (* Runtime alias checker ([config.check_memdep]): fed the evaluated
     word address of every shared-memory access through the
     interpreter's [mem_hook], stamped with the thread's live
     clock [now ()].  Traps when (a) an access with a
     static bank claim lands in a different bank, or (b) two accesses
     the oracle declared independent touch the same address within a
     2-cycle window — exactly the situations where banked scheduling
     or arbitration could have reordered a real dependence.  The hook
     is pure observation: it never touches clocks or buses, so enabling
     it cannot change timing in either engine.  A hardware thread's
     [mem_hook] runs its bus part first ([then_check]), so the checker
     stamps the clock after the bus wait. *)
  let checker_of :
      thread_spec -> (unit -> int) -> (func -> inst -> int -> unit) option =
    if not config.check_memdep then fun _ _ -> None
    else begin
      (* unbanked, every claim is bank 0: only independence is checked *)
      let md =
        match plan with Some p -> p.Memdep.pt | None -> Memdep.build m
      in
      let wsize = 64 in
      let window : (func * inst * int * int) option array =
        Array.make wsize None
      in
      let wpos = ref 0 in
      fun spec now ->
        if spec.local_memory then None
        else
          Some
            (fun f i addr ->
              Option.iter
                (fun plan ->
                  let actual = Memdep.bank_of_addr plan (Int32.of_int addr) in
                  match bank_of_access f i with
                  | Some b when b <> actual ->
                      raise
                        (Alias_violation
                          (Printf.sprintf
                           "check_memdep: %s#%d claims bank %d but address %d \
                            is in bank %d"
                           f.name i.id b addr actual))
                  | _ -> ())
                plan;
              let t = now () in
              Array.iter
                (function
                  | Some (f', (i' : inst), addr', t')
                    when addr' = addr
                         && abs (t - t') <= 2
                         && Memdep.independent md f i f' i' ->
                      raise
                        (Alias_violation
                          (Printf.sprintf
                           "check_memdep: %s#%d and %s#%d were declared \
                            independent but both touched address %d (cycles \
                            %d and %d)"
                           f.name i.id f'.name i'.id addr t t'))
                  | _ -> ())
                window;
              window.(!wpos) <- Some (f, i, addr, t);
              wpos := (!wpos + 1) mod wsize)
    end
  in
  let then_check bus check =
    match (bus, check) with
    | None, h | h, None -> h
    | Some bus, Some check ->
        Some
          (fun f i ad ->
            bus f i ad;
            check f i ad)
  in
  let nq = Array.length queues in
  let nsems_arr = Array.length sems in
  (match engine with
  | Interpreted ->
      (* ---- the interpreted oracle: spin scheduler, id-dispatching
         handlers over get/set clock closures, schedule lookups on the
         hot path ---- *)
      (* Hardware-thread memory-bus contention, fired by the interpreter
         on every Load/Store.  Block timing is charged at
         the terminator from the schedule; here only shared-memory-bus
         waits are added.  The request is issued at the op's scheduled
         slot within the block, so a thread never contends with its own
         schedule. *)
      let make_bus_hook (ti : int) (spec : thread_spec) :
          (func -> inst -> int -> unit) option =
        if spec.local_memory then None
        else
          let cur = ref None in
          let sched_of (f : func) =
            match !cur with
            | Some (n, s) when n == f.name -> s
            | _ ->
                let s = schedule_of f.name in
                cur := Some (f.name, s);
                s
          in
          Some
            (fun f i _ ->
              let s = sched_of f in
              let sa = s.Schedule.start_arr in
              let slot =
                if i.id >= 0 && i.id < Array.length sa && sa.(i.id) >= 0 then
                  sa.(i.id)
                else 0
              in
              let request = clocks.(ti) + slot in
              let grant =
                if nbanks = 1 then Bus.reserve memory_bus request
                else
                  match bank_of_access f i with
                  | Some b -> Bus.reserve mem_buses.(b) request
                  | None ->
                      (* may touch any bank: occupy a slot on every bank,
                         stall until the last grant (banks in index order —
                         the compiled engine must match exactly) *)
                      let g = ref request in
                      for k = 0 to nbanks - 1 do
                        let gk = Bus.reserve mem_buses.(k) request in
                        if gk > !g then g := gk
                      done;
                      !g
              in
              if grant > request then
                clocks.(ti) <- clocks.(ti) + (grant - request))
      in
      let ops = ref 0 in
      let wait_until ti why cond =
        while not (cond ()) do
          blocked.(ti) <- why;
          perform Yield
        done;
        blocked.(ti) <- Not_blocked
      in
      (* Runtime-primitive handlers over an abstract thread clock.
         Hardware threads keep their clock directly in [clocks.(ti)];
         software threads' clock is the interpreter's live cycle cell
         plus a stall offset maintained here (runtime-primitive
         operations are the only points where a software thread's clock
         deviates from its charged cycles).  Each channel's closure
         calls the id-taking operation. *)
      let make_handlers (ti : int) (get_clock : unit -> int)
          (set_clock : int -> unit) : Interp.handlers =
        let produce q v =
          let st = qs.(q) in
          (* block while the queue is full (size+1 buffer semantics) *)
          wait_until ti (On_queue_full q) (fun () ->
              st.pushed - st.popped < st.qdepth);
          (* the slot we reuse was freed by the consume [depth] items ago *)
          let slot_free =
            if st.pushed >= st.qdepth then st.pop_time.(st.pushed mod st.qdepth)
            else 0
          in
          let clk0 = get_clock () in
          let clk = if clk0 < slot_free then slot_free else clk0 in
          (* burst coalescing: a back-to-back produce rides the previous
             one's bus transaction, no new arbitration *)
          let grant =
            if st.allow_burst && clk = st.p_last_end then clk
            else Bus.reserve module_bus clk
          in
          (* queue ops carry no extra software overhead here: the 5
             interface cycles sit in sw_cost; hardware minimums are the
             +1/+2 below *)
          set_clock (grant + 1);
          Queue.add (v, grant + config.queue_latency) st.items;
          st.pushed <- st.pushed + 1;
          st.peak <- max st.peak (st.pushed - st.popped);
          prof_produce st ~clk0 ~clk ~grant;
          incr ops
        in
        let consume q =
          let st = qs.(q) in
          wait_until ti (On_queue_empty q) (fun () -> st.pushed > st.popped);
          let v, visible = Queue.pop st.items in
          let clk0 = get_clock () in
          let clk = if clk0 < visible then visible else clk0 in
          let grant = Bus.reserve module_bus clk in
          set_clock (grant + 1);
          st.pop_time.(st.popped mod st.qdepth) <- get_clock ();
          st.popped <- st.popped + 1;
          prof_consume st ~clk0 ~clk ~grant;
          incr ops;
          v
        in
        let sem_give s k =
          let st = sems.(s) in
          st.count <- st.count + k;
          st.free_at <- max st.free_at (get_clock ());
          let grant = Bus.reserve module_bus (get_clock ()) in
          set_clock (grant + 1);
          incr ops
        in
        let sem_take s k =
          let st = sems.(s) in
          wait_until ti (On_sem (s, k)) (fun () -> st.count >= k);
          st.count <- st.count - k;
          set_clock (max (get_clock ()) st.free_at);
          let grant = Bus.reserve module_bus (get_clock ()) in
          set_clock (grant + 2 (* §4.2: lower takes >= 2 cycles *));
          incr ops
        in
        {
          Interp.produce = Array.init nq produce;
          consume = Array.init nq (fun q () -> consume q);
          sem_give = Array.init nsems_arr sem_give;
          sem_take = Array.init nsems_arr sem_take;
        }
      in
      let make_term_cost (ti : int) : func -> block -> int =
        let last = ref ("", -1) in
        let cur = ref None in
        let sched_of (f : func) =
          match !cur with
          | Some (n, s) when n == f.name -> s
          | _ ->
              let s = schedule_of f.name in
              cur := Some (f.name, s);
              s
        in
        fun f b ->
          let s = sched_of f in
          let pipelined = s.Schedule.ii.(b.bid) > 0 && !last = (f.name, b.bid) in
          let c =
            if pipelined then s.Schedule.ii.(b.bid)
            else s.Schedule.nstates.(b.bid)
          in
          last := (f.name, b.bid);
          clocks.(ti) <- clocks.(ti) + c;
          busys.(ti) <- busys.(ti) + c;
          c
      in
      (* cooperative scheduler: one effect-handler fiber per thread *)
      let runq : (unit -> unit) Queue.t = Queue.create () in
      let start_fiber (body : unit -> unit) () =
        match_with body ()
          {
            retc = (fun () -> ());
            exnc = (fun e -> raise e);
            effc =
              (fun (type a) (eff : a Effect.t) ->
                match eff with
                | Yield ->
                    Some
                      (fun (k : (a, unit) continuation) ->
                        Queue.add (fun () -> continue k ()) runq)
                | _ -> None);
          }
      in
      Array.iteri
        (fun ti spec ->
          Queue.add
            (start_fiber (fun () ->
                 match spec.trole with
                 | Sw ->
                     (* the decoded engine charges Microblaze costs from
                        its tables into [cell]; [stall] holds the extra
                        wall-clock the runtime primitives imposed *)
                     let cell = ref 0 and stall = ref 0 in
                     let get () = !cell + !stall in
                     let set c = stall := c - !cell in
                     let r =
                       try
                         Interp.run_shared ~fuel:config.fuel ~layout ~mem
                           ~handlers:(make_handlers ti get set) ~ctx:ictx
                           ~cycles_cell:cell ?mem_hook:(checker_of spec get)
                           m ~entry:spec.tname ~args:[||]
                       with Interp.Out_of_fuel -> raise (out_of_fuel ti)
                     in
                     clocks.(ti) <- !cell + !stall;
                     busys.(ti) <- !cell;
                     finish ti r
                 | Hw ->
                     let get () = clocks.(ti) in
                     let set c = clocks.(ti) <- c in
                     let r =
                       try
                         Interp.run_shared ~fuel:config.fuel ~layout ~mem
                           ~handlers:(make_handlers ti get set)
                           ~block_cost:(make_term_cost ti) ~ctx:ictx
                           ?mem_hook:
                             (then_check (make_bus_hook ti spec)
                                (checker_of spec get))
                           m ~entry:spec.tname ~args:[||]
                       with Interp.Out_of_fuel -> raise (out_of_fuel ti)
                     in
                     finish ti r))
            runq)
        threads;
      while not (Queue.is_empty runq) do
        let k = Queue.length runq in
        let before = !ops in
        let done_before = !nfinished in
        for _ = 1 to k do
          (Queue.pop runq) ()
        done;
        if
          (not (Queue.is_empty runq))
          && !ops = before
          && !nfinished = done_before
        then raise (Deadlock (deadlock_message threads finished blocked))
      done
  | Compiled ->
      (* ---- the compiled engine: per-channel pre-bound closures and a
         parked-fiber scheduler over per-channel wait lists ---- *)
      (* thread ring: [pending.(ti)] resumes the thread (fiber start or
         parked continuation), [ready] gates its ring turn *)
      let pending : (unit -> unit) option array = Array.make n None in
      let ready = Array.make n true in
      let running = ref 0 in
      let module E = struct
        type _ Effect.t += Park : blocked_on * int list ref -> unit Effect.t
      end in
      let wake (wl : int list ref) =
        match !wl with
        | [] -> ()
        | l ->
            wl := [];
            List.iter
              (fun ti ->
                ready.(ti) <- true;
                blocked.(ti) <- Not_blocked)
              l
      in
      (* Park until [cond] holds, registering on [wl]; re-checks on
         every wake (another thread may have consumed the event). *)
      let wait_park why (wl : int list ref) cond =
        while not (cond ()) do
          perform (E.Park (why, wl))
        done
      in
      (* Runtime-primitive handlers of one thread, specialised per
         channel: queue ring, bus, latency and the thread clock are
         pre-bound, so an op neither indexes the channel table nor calls
         through an abstract clock.  Every thread's clock is the
         interpreter's live cycle cell plus a stall offset — Microblaze
         costs or scheduled block costs land in [cell], waits in
         [stall].  [cell] cannot advance during one handler call (no
         instructions retire mid-primitive), so the clock algebra folds
         into plain arithmetic on a snapshot.  The arithmetic is
         identical to the interpreted handlers — byte-identical stats are
         the contract. *)
      let make_handlers (cell : int ref) (stall : int ref) : Interp.handlers =
        let produce_q (st : queue_state) q =
          let depth = st.qdepth in
          let lat = config.queue_latency in
          let wl_empty = st.wl_empty and wl_full = st.wl_full in
          fun v ->
            if st.pushed - st.popped >= depth then
              wait_park (On_queue_full q) wl_full (fun () ->
                  st.pushed - st.popped < depth);
            let slot = st.pushed mod depth in
            let slot_free =
              if st.pushed >= depth then Array.unsafe_get st.pop_time slot
              else 0
            in
            let cell0 = !cell in
            let clk0 = cell0 + !stall in
            let clk = if clk0 < slot_free then slot_free else clk0 in
            let grant =
              if st.allow_burst && clk = st.p_last_end then clk
              else bus_grab module_bus clk
            in
            stall := grant + 1 - cell0;
            Array.unsafe_set st.ring_val slot v;
            Array.unsafe_set st.ring_vis slot (grant + lat);
            st.pushed <- st.pushed + 1;
            let sz = st.pushed - st.popped in
            if sz > st.peak then st.peak <- sz;
            prof_produce st ~clk0 ~clk ~grant;
            wake wl_empty
        in
        let consume_q (st : queue_state) q =
          let depth = st.qdepth in
          let wl_empty = st.wl_empty and wl_full = st.wl_full in
          fun () ->
            if st.pushed <= st.popped then
              wait_park (On_queue_empty q) wl_empty (fun () ->
                  st.pushed > st.popped);
            let slot = st.popped mod depth in
            let v = Array.unsafe_get st.ring_val slot in
            let vis = Array.unsafe_get st.ring_vis slot in
            let cell0 = !cell in
            let clk0 = cell0 + !stall in
            let clk = if clk0 < vis then vis else clk0 in
            let grant = bus_grab module_bus clk in
            let t1 = grant + 1 in
            stall := t1 - cell0;
            Array.unsafe_set st.pop_time slot t1;
            st.popped <- st.popped + 1;
            prof_consume st ~clk0 ~clk ~grant;
            wake wl_full;
            v
        in
        let give_s (st : sem_state) =
         fun k ->
          st.count <- st.count + k;
          let cell0 = !cell in
          let clk = cell0 + !stall in
          if clk > st.free_at then st.free_at <- clk;
          let grant = bus_grab module_bus clk in
          stall := grant + 1 - cell0;
          wake st.wl_sem
        in
        let take_s (st : sem_state) s =
         fun k ->
          if st.count < k then
            wait_park (On_sem (s, k)) st.wl_sem (fun () -> st.count >= k);
          st.count <- st.count - k;
          let cell0 = !cell in
          let clk = cell0 + !stall in
          let clk = if clk < st.free_at then st.free_at else clk in
          let grant = bus_grab module_bus clk in
          stall := grant + 2 - cell0 (* §4.2: lower takes >= 2 cycles *)
        in
        {
          Interp.produce = Array.init nq (fun q -> produce_q qs.(q) q);
          consume = Array.init nq (fun q -> consume_q qs.(q) q);
          sem_give = Array.init nsems_arr (fun s -> give_s sems.(s));
          sem_take = Array.init nsems_arr (fun s -> take_s sems.(s) s);
        }
      in
      (* A hardware thread's block costs over flat per-function arrays,
         resolved from the schedule table once at first entry; steady
         state is one physical-equality check and two array reads per
         block exit.  The interpreter
         charges the answer into the thread's [cell]. *)
      let make_block_cost () : func -> block -> int =
        let cur_f : func option ref = ref None in
        let cur_ii = ref [||] in
        let cur_ns = ref [||] in
        let last_bid = ref (-1) in
        fun f b ->
          (match !cur_f with
          | Some g when g == f -> ()
          | _ ->
              let s = schedule_of f.name in
              cur_f := Some f;
              cur_ii := s.Schedule.ii;
              cur_ns := s.Schedule.nstates;
              (* a function change breaks any pipelined streak, exactly
                 like the interpreted engine's (name, bid) key *)
              last_bid := -1);
          let bid = b.bid in
          let ii = Array.unsafe_get !cur_ii bid in
          let c =
            if ii > 0 && !last_bid = bid then ii
            else Array.unsafe_get !cur_ns bid
          in
          last_bid := bid;
          c
      in
      (* Per-function issue slots, clamped to [0, nregs) once per
         function so the per-op path is a single unchecked read (an
         instruction id is always < the function's register count). *)
      let slot_arrays : (string, int array) Hashtbl.t = Hashtbl.create 16 in
      let slots_of (f : func) : int array =
        match Hashtbl.find_opt slot_arrays f.name with
        | Some sl -> sl
        | None ->
            let sa = (schedule_of f.name).Schedule.start_arr in
            let sl =
              Array.init (Twill_ir.Vec.length f.insts) (fun id ->
                  if id < Array.length sa && sa.(id) >= 0 then sa.(id) else 0)
            in
            Hashtbl.replace slot_arrays f.name sl;
            sl
      in
      (* A hardware thread's memory-bus waits, added to its [stall]. *)
      let make_bus_hook (cell : int ref) (stall : int ref) (spec : thread_spec)
          : (func -> inst -> int -> unit) option =
        if spec.local_memory then None
        else
          let cur_f : func option ref = ref None in
          let cur_sl = ref [||] in
          let cur_bt : int option array ref = ref [||] in
          Some
            (fun f i _ ->
              (match !cur_f with
              | Some g when g == f -> ()
              | _ ->
                  cur_f := Some f;
                  cur_sl := slots_of f;
                  if nbanks > 1 then cur_bt := bank_table_of f);
              let request = !cell + !stall + Array.unsafe_get !cur_sl i.id in
              let grant =
                if nbanks = 1 then bus_grab memory_bus request
                else
                  match Array.unsafe_get !cur_bt i.id with
                  | Some b -> bus_grab mem_buses.(b) request
                  | None ->
                      (* all-banks conservative path; identical order and
                         arithmetic to the interpreted engine's *)
                      let g = ref request in
                      for k = 0 to nbanks - 1 do
                        let gk = bus_grab mem_buses.(k) request in
                        if gk > !g then g := gk
                      done;
                      !g
              in
              if grant > request then stall := !stall + (grant - request))
      in
      let start_fiber (body : unit -> unit) () =
        match_with body ()
          {
            retc = (fun () -> ());
            exnc = (fun e -> raise e);
            effc =
              (fun (type a) (eff : a Effect.t) ->
                match eff with
                | E.Park (why, wl) ->
                    Some
                      (fun (k : (a, unit) continuation) ->
                        let ti = !running in
                        blocked.(ti) <- why;
                        ready.(ti) <- false;
                        pending.(ti) <- Some (fun () -> continue k ());
                        wl := ti :: !wl)
                | _ -> None);
          }
      in
      (* One fiber body for both roles: a software thread runs on the
         Microblaze cost tables, a hardware thread under its schedule's
         block costs and memory-bus hook. *)
      Array.iteri
        (fun ti spec ->
          pending.(ti) <-
            Some
              (start_fiber (fun () ->
                   let cell = ref 0 and stall = ref 0 in
                   let block_cost, bus_hook =
                     match spec.trole with
                     | Sw -> (None, None)
                     | Hw ->
                         (Some (make_block_cost ()), make_bus_hook cell stall spec)
                   in
                   let mem_hook =
                     then_check bus_hook
                       (checker_of spec (fun () -> !cell + !stall))
                   in
                   let r =
                     try
                       Interp.run_shared ~fuel:config.fuel ~layout ~mem
                         ~handlers:(make_handlers cell stall) ?block_cost
                         ~ctx:ictx ~cycles_cell:cell ?mem_hook
                         m ~entry:spec.tname ~args:[||]
                     with Interp.Out_of_fuel -> raise (out_of_fuel ti)
                   in
                   clocks.(ti) <- !cell + !stall;
                   busys.(ti) <- !cell;
                   finish ti r)))
        threads;
      (* ring scheduler: cycle thread slots in index order, running each
         ready thread at its turn; [n] consecutive skips with unfinished
         threads means nothing can ever wake — deadlock *)
      let cur = ref 0 in
      let idle_scan = ref 0 in
      while !nfinished < n do
        (if ready.(!cur) then
           match pending.(!cur) with
           | Some resume ->
               idle_scan := -1;
               pending.(!cur) <- None;
               running := !cur;
               resume ()
           | None ->
               (* finished thread: its slot stays ready but empty *)
               ());
        cur := (!cur + 1) mod n;
        incr idle_scan;
        if !idle_scan > n && !nfinished < n then
          raise (Deadlock (deadlock_message threads finished blocked))
      done);
  let ret =
    match results.(master) with
    | Some r -> r.Interp.ret
    | None -> raise (Deadlock "master thread did not finish")
  in
  {
    ret;
    prints = merge_prints ~master results;
    cycles = Array.fold_left max 0 clocks;
    thread_finish = Array.mapi (fun i spec -> (spec.tname, clocks.(i))) threads;
    thread_busy = Array.mapi (fun i spec -> (spec.tname, busys.(i))) threads;
    executed =
      Array.fold_left
        (fun acc r ->
          match r with Some r -> acc + r.Interp.executed | None -> acc)
        0 results;
    queue_peaks = Array.map (fun q -> q.peak) qs;
    queue_profiles = Array.map profile_of qs;
    module_bus_waits = module_bus.Bus.wait_cycles;
    memory_bus_waits =
      Array.fold_left (fun acc b -> acc + b.Bus.wait_cycles) 0 mem_buses;
    mem_bank_grants = Array.map (fun b -> b.Bus.grants) mem_buses;
    mem_bank_waits = Array.map (fun b -> b.Bus.wait_cycles) mem_buses;
  }

(* --- differential engine check ------------------------------------------- *)

exception Engine_mismatch of string

let stats_mismatch (a : stats) (b : stats) : string option =
  let check name fmt x y acc =
    match acc with
    | Some _ -> acc
    | None -> if x = y then None else Some (Printf.sprintf "%s: %s vs %s" name (fmt x) (fmt y))
  in
  let istr = string_of_int in
  None
  |> check "ret" Int32.to_string a.ret b.ret
  |> check "prints"
       (fun p -> String.concat ";" (List.map Int32.to_string p))
       a.prints b.prints
  |> check "cycles" istr a.cycles b.cycles
  |> check "executed" istr a.executed b.executed
  |> check "module_bus_waits" istr a.module_bus_waits b.module_bus_waits
  |> check "memory_bus_waits" istr a.memory_bus_waits b.memory_bus_waits
  |> check "mem_bank_grants"
       (fun q ->
         String.concat "," (List.map string_of_int (Array.to_list q)))
       a.mem_bank_grants b.mem_bank_grants
  |> check "mem_bank_waits"
       (fun q ->
         String.concat "," (List.map string_of_int (Array.to_list q)))
       a.mem_bank_waits b.mem_bank_waits
  |> check "queue_peaks"
       (fun q ->
         String.concat "," (List.map string_of_int (Array.to_list q)))
       a.queue_peaks b.queue_peaks
  |> check "queue_profiles"
       (fun ps ->
         let hist h =
           String.concat "," (List.map string_of_int (Array.to_list h))
         in
         String.concat "|"
           (List.map
              (fun p ->
                Printf.sprintf "p=%d c=%d sf=%d se=%d bw=%d pk=%d occ=[%s] pb=[%s] cb=[%s]"
                  p.qp_produces p.qp_consumes p.qp_stall_full p.qp_stall_empty
                  p.qp_bus_waits p.qp_peak (hist p.qp_occ_hist)
                  (hist p.qp_prod_bursts) (hist p.qp_cons_bursts))
              (Array.to_list ps)))
       a.queue_profiles b.queue_profiles
  |> check "thread_finish"
       (fun t ->
         String.concat ","
           (List.map
              (fun (n, c) -> Printf.sprintf "%s=%d" n c)
              (Array.to_list t)))
       a.thread_finish b.thread_finish
  |> check "thread_busy"
       (fun t ->
         String.concat ","
           (List.map
              (fun (n, c) -> Printf.sprintf "%s=%d" n c)
              (Array.to_list t)))
       a.thread_busy b.thread_busy

let diff_engines ?config ?master ~schedules (m : modul)
    ~(threads : thread_spec array) ~(queues : Threadgen.queue_info array)
    ~(nsems : int) () : stats =
  let run engine =
    simulate ?config ?master ~engine ~schedules m ~threads ~queues ~nsems ()
  in
  let interp = run Interpreted in
  let compiled = run Compiled in
  (match stats_mismatch interp compiled with
  | None -> ()
  | Some d ->
      raise
        (Engine_mismatch
           (Printf.sprintf "rtsim engines disagree (interpreted vs compiled) on %s" d)));
  compiled

(* --- a DSWP extraction as one simulation ----------------------------------- *)

let thread_specs (t : Twill_dswp.Dswp.threaded) : thread_spec array =
  Array.mapi
    (fun s name ->
      {
        tname = name;
        trole =
          (match t.roles.(s) with
          | Twill_dswp.Partition.Sw -> Sw
          | Twill_dswp.Partition.Hw -> Hw);
        local_memory = false;
      })
    t.stages

let simulate_threaded ?config ?engine ~schedules (t : Twill_dswp.Dswp.threaded)
    : stats =
  simulate ?config ~master:t.master ?engine ~schedules t.modul
    ~threads:(thread_specs t)
    ~queues:t.queues ~nsems:t.nsems ()
