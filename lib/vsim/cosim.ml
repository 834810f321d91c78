(* Co-simulation of emitted RTL against the rtsim reference.

   The differential drivers below check the Chapter-4 primitive
   contracts cycle-by-cycle against reference models written from the
   spec (not from the RTL): §4.3 size+1 queue with the withheld/late
   give-ack, §4.2 counting semaphore with a registered (two-cycle)
   lower acknowledgement, §4.1 processor-first arbitration.

   [run] closes the loop on whole designs: every hardware
   stage is an elaborated Vsim instance of its emitted module, queues
   and semaphores are RTL instances, and the harness stands in for the
   remaining blocks of Figure 4.1 — module bus (one op/cycle, processor
   first, then lowest stage), memory bus (one load/store per cycle on
   the shared memory image), HWInterface reply path, and the processor:
   software stages run as interpreter fibers whose runtime-primitive
   operations go through the same RTL queues/semaphores.  Data crosses
   the harness as the interpreter holds it: memory words and queue
   values are 32-bit values sign-extended into native ints, and a value
   read off an RTL port (zero-extended, possibly narrower) is normalised
   with [Interp.norm] before a software stage or the memory image sees
   it.  Each
   hardware-thread call-port request follows the §4.4 protocol: the
   thread raises fc_valid, the harness registers one in-flight
   operation, performs it over the buses, and answers with a one-cycle
   ret_valid pulse. *)

open Effect
open Effect.Deep
module Sim = Twill_rtsim.Sim
module Interp = Twill_ir.Interp
module Memdep = Twill_ir.Memdep
module Schedule = Twill_hls.Schedule
module Dswp = Twill_dswp.Dswp
module Partition = Twill_dswp.Partition
module Threadgen = Twill_dswp.Threadgen
module Vemit = Twill_vgen.Vemit
module Vruntime = Twill_vgen.Vruntime

exception Cosim_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Cosim_error s)) fmt

let primitives_design =
  lazy
    (Vparse.parse
       (String.concat "\n"
          [ Vruntime.queue_module; Vruntime.semaphore_module;
            Vruntime.arbiter_module ]))

(* ---- per-primitive differential drivers --------------------------------- *)

let diff_queue ?(width = 32) ~seed ~depth ~ops () : int =
  let rng = Random.State.make [| seed |] in
  let q =
    Vsim.instantiate
      ~overrides:[ ("WIDTH", width); ("DEPTH", depth) ]
      (Lazy.force primitives_design) "twill_queue"
  in
  (* resolve the bus nets once; the driver loop is all O(1) accesses *)
  let h_gv = Vsim.handle q "give_valid" and h_gd = Vsim.handle q "give_data" in
  let h_tv = Vsim.handle q "take_valid" and h_gack = Vsim.handle q "give_ack" in
  let h_tack = Vsim.handle q "take_ack" and h_td = Vsim.handle q "take_data" in
  let h_count = Vsim.handle q "count" in
  Vsim.poke q "rst" 1;
  Vsim.step q;
  Vsim.poke q "rst" 0;
  (* reference model straight from §4.3 *)
  let fifo = Queue.create () in
  let occ = ref 0 and pend = ref false in
  let completed = ref 0 and next_v = ref 1 in
  let cycle = ref 0 in
  while !completed < ops && !cycle < (ops * 40) + 100 do
    incr cycle;
    let gave =
      (not !pend) && !next_v <= ops && Random.State.int rng 2 = 0
    in
    let v = !next_v land ((1 lsl width) - 1) in
    if gave then begin
      Vsim.poke_h q h_gv 1;
      Vsim.poke_h q h_gd v
    end
    else Vsim.poke_h q h_gv 0;
    (* occasionally pulse take on an empty queue: must not ack *)
    let took = Random.State.int rng 3 = 0 in
    Vsim.poke_h q h_tv (if took then 1 else 0);
    let occ_pre = !occ and pend_pre = !pend in
    Vsim.step q;
    let accept = gave (* the handshake never gives while stalled *) in
    let take_ok = took && occ_pre > 0 in
    let exp_give_ack =
      (gave && occ_pre < depth)
      || (take_ok && (pend_pre || (gave && occ_pre >= depth)))
    in
    if accept then begin
      Queue.add v fifo;
      incr next_v
    end;
    occ := occ_pre + (if accept then 1 else 0) - (if take_ok then 1 else 0);
    pend :=
      (if take_ok then false
       else if gave then occ_pre >= depth
       else pend_pre);
    if Vsim.peek_h q h_gack <> Bool.to_int exp_give_ack then
      fail "queue cycle %d: give_ack=%d expected %b (occ=%d pend=%b)" !cycle
        (Vsim.peek_h q h_gack) exp_give_ack occ_pre pend_pre;
    if Vsim.peek_h q h_tack <> Bool.to_int take_ok then
      fail "queue cycle %d: take_ack=%d expected %b (occ=%d)" !cycle
        (Vsim.peek_h q h_tack) take_ok occ_pre;
    if take_ok then begin
      let expected = Queue.pop fifo in
      let got = Vsim.peek_h q h_td in
      if got <> expected then
        fail "queue cycle %d: dequeued %d, FIFO order says %d" !cycle got
          expected;
      incr completed
    end;
    if accept then incr completed;
    if Vsim.peek_h q h_count <> !occ then
      fail "queue cycle %d: count=%d model occupancy %d" !cycle
        (Vsim.peek_h q h_count) !occ
  done;
  if !completed < ops then fail "queue driver stalled after %d ops" !completed;
  !completed

let diff_semaphore ~seed ~max_count ~initial ~ops () : int =
  let rng = Random.State.make [| seed |] in
  let s =
    Vsim.instantiate
      ~overrides:[ ("MAX_COUNT", max_count); ("INITIAL", initial) ]
      (Lazy.force primitives_design) "twill_semaphore"
  in
  let h_gv = Vsim.handle s "give_valid" and h_tv = Vsim.handle s "take_valid" in
  let h_tack = Vsim.handle s "take_ack" and h_count = Vsim.handle s "count" in
  Vsim.poke s "rst" 1;
  Vsim.step s;
  Vsim.poke s "rst" 0;
  Vsim.poke s "give_count" 1;
  Vsim.poke s "take_count" 1;
  let count = ref initial and completed = ref 0 in
  let prev_ack = ref false in
  for cycle = 1 to ops do
    let gv = Random.State.int rng 2 = 0 and tv = Random.State.int rng 2 = 0 in
    Vsim.poke_h s h_gv (Bool.to_int gv);
    Vsim.poke_h s h_tv (Bool.to_int tv);
    (* §4.2 two-cycle lower: the ack is registered — poking take_valid
       must not make it visible before the clock edge *)
    if Vsim.peek_h s h_tack <> Bool.to_int !prev_ack then
      fail "semaphore cycle %d: take_ack combinationally visible" cycle;
    let pre = !count in
    Vsim.step s;
    let give_ok = gv && pre + 1 <= max_count in
    let take_ok = tv && pre >= 1 in
    count := pre + (if give_ok then 1 else 0) - (if take_ok then 1 else 0);
    if Vsim.peek_h s h_tack <> Bool.to_int take_ok then
      fail "semaphore cycle %d: take_ack=%d expected %b (count=%d)" cycle
        (Vsim.peek_h s h_tack) take_ok pre;
    if Vsim.peek_h s h_count <> !count then
      fail "semaphore cycle %d: count=%d model %d" cycle
        (Vsim.peek_h s h_count) !count;
    prev_ack := take_ok;
    if give_ok then incr completed;
    if take_ok then incr completed
  done;
  !completed

let diff_arbiter ~seed ~n ~cycles () : int =
  let rng = Random.State.make [| seed |] in
  let a =
    Vsim.instantiate
      ~overrides:[ ("N", n) ]
      (Lazy.force primitives_design) "twill_bus_arbiter"
  in
  let h_req = Vsim.handle a "request" and h_tp = Vsim.handle a "to_proc" in
  let h_pr = Vsim.handle a "proc_request" in
  let h_grant = Vsim.handle a "grant" in
  let h_pgrant = Vsim.handle a "proc_grant" in
  Vsim.poke a "rst" 1;
  Vsim.step a;
  Vsim.poke a "rst" 0;
  for cycle = 1 to cycles do
    let req = Random.State.int rng (1 lsl n) in
    let tp = Random.State.int rng (1 lsl n) in
    let pr_ = Random.State.int rng 4 = 0 in
    Vsim.poke_h a h_req req;
    Vsim.poke_h a h_tp tp;
    Vsim.poke_h a h_pr (Bool.to_int pr_);
    Vsim.step a;
    let exp_grant, exp_proc =
      if pr_ then (0, 1)
      else begin
        let best = ref (-1) in
        for i = 0 to n - 1 do
          if !best = -1 && req land (1 lsl i) <> 0 && tp land (1 lsl i) <> 0
          then best := i
        done;
        for i = 0 to n - 1 do
          if !best = -1 && req land (1 lsl i) <> 0 then best := i
        done;
        ((if !best >= 0 then 1 lsl !best else 0), 0)
      end
    in
    if
      Vsim.peek_h a h_grant <> exp_grant
      || Vsim.peek_h a h_pgrant <> exp_proc
    then
      fail
        "arbiter cycle %d: grant=%d/proc=%d expected %d/%d (req=%d tp=%d pr=%b)"
        cycle (Vsim.peek_h a h_grant)
        (Vsim.peek_h a h_pgrant)
        exp_grant exp_proc req tp pr_
  done;
  cycles

(* ---- engine differential: levelized vs fixpoint ------------------------- *)

let diff_engines ?(overrides = []) ?(cycles = 500) ~seed
    (design : Vparse.design) (top : string) : int =
  (* both engines under the same stimulus: the levelized scheduler is
     checked against the fixpoint semantic oracle — state, raised
     errors, and VCD bytes must agree every cycle *)
  let sims =
    Array.map
      (fun e -> (Vsim.engine_name e, Vsim.instantiate ~engine:e ~overrides design top))
      [| Vsim.Levelized; Vsim.Fixpoint |]
  in
  let (n0, s0), (n1, s1) = (sims.(0), sims.(1)) in
  let rng = Random.State.make [| seed |] in
  let inputs =
    List.map
      (fun nm -> (Vsim.handle s0 nm, Vsim.handle s1 nm, Vsim.net_width s0 nm))
      (Vsim.top_inputs s0)
  in
  let rand_bits w =
    if w <= 30 then Random.State.int rng (1 lsl w)
    else
      let v =
        (Random.State.bits rng lsl 30) lor Random.State.bits rng
      in
      if w >= 60 then v else v land ((1 lsl w) - 1)
  in
  let paths =
    Array.map (fun (nm, _) -> Filename.temp_file ("vsim_" ^ nm) ".vcd") sims
  in
  let dumpers =
    Array.mapi (fun k (_, s) -> Vsim.Vcd.create s paths.(k)) sims
  in
  let cleanup () =
    Array.iter Vsim.Vcd.close dumpers;
    Array.iter Sys.remove paths
  in
  let completed = ref 0 in
  (try
     for cyc = 1 to cycles do
       List.iter
         (fun (h0, h1, w) ->
           let v = rand_bits w in
           Vsim.poke_h s0 h0 v;
           Vsim.poke_h s1 h1 v)
         inputs;
       (* runtime failures (out-of-range writes under random stimulus)
          are part of the contract too: both engines must raise the same
          error at the same cycle *)
       let step s = try Vsim.step s; None with Vsim.Sim_error m -> Some m in
       let o0 = step s0 in
       let o1 = step s1 in
       (match (o0, o1) with
       | None, None -> ()
       | Some m0, Some m1 ->
           if m0 <> m1 then
             fail "%s cycle %d: %s/%s raise differently: %S vs %S" top cyc n0
               n1 m0 m1;
           raise Exit
       | Some m, None ->
           fail "%s cycle %d: only the %s engine raised: %s" top cyc n0 m
       | None, Some m ->
           fail "%s cycle %d: only the %s engine raised: %s" top cyc n1 m);
       Array.iter Vsim.Vcd.sample dumpers;
       (match Vsim.compare_state s0 s1 with
       | Some d -> fail "%s cycle %d: %s/%s engines diverge: %s" top cyc n0 n1 d
       | None -> ());
       completed := cyc
     done
   with
  | Exit -> ()
  | e ->
      cleanup ();
      raise e);
  Array.iter Vsim.Vcd.close dumpers;
  let read_all p =
    let ic = open_in_bin p in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let waves = Array.map read_all paths in
  Array.iter Sys.remove paths;
  if waves.(0) <> waves.(1) then
    fail "%s: VCD dumps differ between %s and %s engines" top n0 n1;
  !completed

(* ---- whole-design co-simulation ----------------------------------------- *)

type report = {
  rtl_ret : int32;
  rtl_prints : int32 list;
  rtl_cycles : int;
  rtl_engine : string;
      (* "levelized" | "fixpoint" | "mixed", plus a " (comb-loop
         fallback)" suffix when a levelized request had to drop to the
         fixpoint engine *)
  model_ret : int32;
  model_prints : int32 list;
  model_cycles : int;
  agree : bool;
  rtl_ops : (int * int * int * int) list array;
      (* per-stage call-port issue trace, (fc_code, fc_target, fc_data,
         fc_addr) in issue order; only populated under [~trace:true]
         and only for hardware stages — the cross-backend differential
         oracle compares these streams between the FSM and dataflow
         lowerings of the same partition *)
}

(* A blocked software fiber parks itself with the condition it is
   waiting on; the scheduler polls the condition (a cheap, allocation-
   free closure call) once per cycle and resumes the one-shot
   continuation only when it holds, instead of the fiber re-performing
   an effect — and re-allocating its continuation — every cycle. *)
type _ Effect.t += Wait : (unit -> bool) -> unit Effect.t

type opkind =
  | OLoad of int
  | OStore of int * int
  | OQgive of int * int
  | OQtake of int
  | OSgive of int * int
  | OStake of int * int
  | OPrint of int

type phase =
  | Wait_bus (* registered, waiting for a bus slot *)
  | Pulse_sent (* valid pulse went out this edge; check the ack next *)
  | Await_ack (* accepted extra-slot give waiting for its late ack *)
  | Reply of int (* ret_valid being pulsed with this data *)

type pend = { mutable ph : phase; op : opkind }

(* per-instance handle bundles: every net the harness pokes or peeks in
   its per-cycle loop, resolved once at elaboration *)
type qh = {
  qi : Vsim.t;
  q_depth : int;
  q_gv : Vsim.handle;
  q_gd : Vsim.handle;
  q_tv : Vsim.handle;
  q_gack : Vsim.handle;
  q_tack : Vsim.handle;
  q_td : Vsim.handle;
  q_count : Vsim.handle;
}

type sh = {
  si : Vsim.t;
  s_gv : Vsim.handle;
  s_gc : Vsim.handle;
  s_tv : Vsim.handle;
  s_tc : Vsim.handle;
  s_tack : Vsim.handle;
  s_count : Vsim.handle;
}

type th = {
  ti : Vsim.t;
  t_done : Vsim.handle;
  t_fcv : Vsim.handle;
  t_fcc : Vsim.handle;
  t_fct : Vsim.handle;
  t_fcd : Vsim.handle;
  t_fca : Vsim.handle;
  t_rv : Vsim.handle;
  t_rd : Vsim.handle;
  t_retval : Vsim.handle;
}

(* harness clock cycles before a whole-design co-simulation gives up *)
let fuel_cycles = 2_000_000

let run ~config ?engine ?vcd ?(model = true) ?(trace = false) ~schedules
    ~design (t : Dswp.threaded) : report =
  (* --- the reference: rtsim of the table the RTL was emitted from.
     [~model:false] skips it for callers that own the comparison
     themselves (the fuzz oracle checks every stage against the AST
     reference); the report's model_* fields then mirror the RTL run
     and [agree] is vacuously true. --- *)
  let stats =
    if model then Some (Sim.simulate_threaded ~config ~schedules t) else None
  in
  (* --- the RTL side: instantiation only reads the parsed [design], so
     callers share one parse across runs --- *)
  let nstages = Array.length t.Dswp.stages in
  let is_hw s = t.Dswp.roles.(s) = Partition.Hw in
  let layout, mem = Interp.fresh_memory t.Dswp.modul in
  let ictx = Interp.make_context ~layout t.Dswp.modul in
  (* banked memory: one load/store slot per bank per cycle instead of
     one for the whole memory — the same per-bank arbitration rtsim
     models and the per-bank RTL memory ports provide *)
  let nbanks = Schedule.mem_banks schedules in
  let bank_of_addr (a : int) : int =
    match Schedule.plan schedules with
    | None -> 0
    | Some p -> Memdep.bank_of_addr p (Int32.of_int a)
  in
  let thr : th option array = Array.make nstages None in
  let instances = ref [] in
  Array.iteri
    (fun s name ->
      if is_hw s then begin
        let i = Vsim.instantiate ?engine design ("twill_thread_" ^ name) in
        thr.(s) <-
          Some
            {
              ti = i;
              t_done = Vsim.handle i "done";
              t_fcv = Vsim.handle i "fc_valid";
              t_fcc = Vsim.handle i "fc_code";
              t_fct = Vsim.handle i "fc_target";
              t_fcd = Vsim.handle i "fc_data";
              t_fca = Vsim.handle i "fc_addr";
              t_rv = Vsim.handle i "ret_valid";
              t_rd = Vsim.handle i "ret_data";
              t_retval = Vsim.handle i "retval";
            };
        instances := (Printf.sprintf "t%d_%s" s name, i) :: !instances
      end)
    t.Dswp.stages;
  let qinst : (int, qh) Hashtbl.t = Hashtbl.create 8 in
  Array.iter
    (fun (q : Threadgen.queue_info) ->
      (* merged channels have no operations left (the comm optimizer
         rewrote them onto the surviving queue) and no RTL instance *)
      if q.Threadgen.merged_into = None then begin
      let depth = max 1 q.Threadgen.depth in
      let i =
        Vsim.instantiate ?engine
          ~overrides:[ ("WIDTH", q.Threadgen.width_bits); ("DEPTH", depth) ]
          design "twill_queue"
      in
      Hashtbl.replace qinst q.Threadgen.qid
        {
          qi = i;
          q_depth = depth;
          q_gv = Vsim.handle i "give_valid";
          q_gd = Vsim.handle i "give_data";
          q_tv = Vsim.handle i "take_valid";
          q_gack = Vsim.handle i "give_ack";
          q_tack = Vsim.handle i "take_ack";
          q_td = Vsim.handle i "take_data";
          q_count = Vsim.handle i "count";
        };
      instances := (Printf.sprintf "q%d" q.Threadgen.qid, i) :: !instances
      end)
    t.Dswp.queues;
  let sems =
    Array.init t.Dswp.nsems (fun k ->
        let i =
          Vsim.instantiate ?engine
            ~overrides:[ ("MAX_COUNT", 1); ("INITIAL", 1) ]
            design "twill_semaphore"
        in
        instances := (Printf.sprintf "s%d" k, i) :: !instances;
        {
          si = i;
          s_gv = Vsim.handle i "give_valid";
          s_gc = Vsim.handle i "give_count";
          s_tv = Vsim.handle i "take_valid";
          s_tc = Vsim.handle i "take_count";
          s_tack = Vsim.handle i "take_ack";
          s_count = Vsim.handle i "count";
        })
  in
  let instances = List.rev !instances in
  let rtl_engine =
    let requested = Option.value engine ~default:Vsim.Levelized in
    match List.map (fun (_, i) -> Vsim.engine_of i) instances with
    | [] -> Vsim.engine_name requested
    | engs ->
        let base =
          match List.sort_uniq compare engs with
          | [ e ] -> Vsim.engine_name e
          | _ -> "mixed"
        in
        if requested <> Vsim.Fixpoint && List.mem Vsim.Fixpoint engs then
          base ^ " (comb-loop fallback)"
        else base
  in
  let queue_of qid =
    match Hashtbl.find_opt qinst qid with
    | Some i -> i
    | None -> fail "operation on unknown queue %d" qid
  in
  (* reset everything, then hold every thread's start high *)
  List.iter
    (fun (_, i) ->
      Vsim.poke i "rst" 1;
      Vsim.step i;
      Vsim.poke i "rst" 0)
    instances;
  Array.iter (function Some h -> Vsim.poke h.ti "start" 1 | None -> ()) thr;
  let dumpers =
    match vcd with
    | None -> []
    | Some base ->
        List.map
          (fun (label, i) -> Vsim.Vcd.create i (base ^ "." ^ label ^ ".vcd"))
          instances
  in
  (* --- harness state --- *)
  let preq : pend option array = Array.make nstages None in
  (* a software stage's in-flight op: [sw_done] flips when it completes,
     with its answer in [sw_value] (a sign-extended native int, the
     interpreter's representation — nothing is boxed per op) *)
  let sw_done = Array.make nstages false in
  let sw_value = Array.make nstages 0 in
  let results : Interp.result option array = Array.make nstages None in
  let prints_rev : int32 list ref array = Array.init nstages (fun _ -> ref []) in
  let ops_rev : (int * int * int * int) list ref array =
    Array.init nstages (fun _ -> ref [])
  in
  let pulses : (Vsim.t * Vsim.handle) list ref = ref [] in
  let replied : int list ref = ref [] in
  let progress = ref true in
  let pulse i h v =
    Vsim.poke_h i h v;
    pulses := (i, h) :: !pulses
  in
  let complete s d =
    progress := true;
    match preq.(s) with
    | None -> assert false
    | Some p ->
        if is_hw s then begin
          p.ph <- Reply d;
          let h = Option.get thr.(s) in
          Vsim.poke_h h.ti h.t_rv 1;
          Vsim.poke_h h.ti h.t_rd d;
          replied := s :: !replied
        end
        else begin
          sw_value.(s) <- Interp.norm d;
          sw_done.(s) <- true;
          preq.(s) <- None
        end
  in
  (* --- software stages as interpreter fibers (as in rtsim) --- *)
  let runq : (unit -> unit) Queue.t = Queue.create () in
  let parked : ((unit -> bool) * (unit, unit) Effect.Deep.continuation) list ref
      =
    ref []
  in
  let wait_until cond =
    while not (cond ()) do
      perform (Wait cond)
    done
  in
  let post s op =
    (match preq.(s) with
    | Some _ -> fail "stage %d posted an op with one in flight" s
    | None -> ());
    sw_done.(s) <- false;
    preq.(s) <- Some { ph = Wait_bus; op };
    progress := true;
    wait_until (fun () -> sw_done.(s));
    sw_value.(s)
  in
  let handlers s : Interp.handlers =
    let nq = Array.length t.Dswp.queues and ns = t.Dswp.nsems in
    {
      Interp.produce =
        Array.init nq (fun q v -> ignore (post s (OQgive (q, v))));
      consume = Array.init nq (fun q () -> post s (OQtake q));
      sem_give = Array.init ns (fun sm k -> ignore (post s (OSgive (sm, k))));
      sem_take = Array.init ns (fun sm k -> ignore (post s (OStake (sm, k))));
    }
  in
  let start_fiber (body : unit -> unit) () =
    match_with body ()
      {
        retc = (fun () -> ());
        exnc = (fun e -> raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Wait cond ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    parked := (cond, k) :: !parked)
            | _ -> None);
      }
  in
  Array.iteri
    (fun s name ->
      if not (is_hw s) then
        Queue.add
          (start_fiber (fun () ->
               let r =
                 Interp.run_shared ~layout ~mem ~handlers:(handlers s)
                   ~ctx:ictx t.Dswp.modul ~entry:name ~args:[||]
               in
               results.(s) <- Some r;
               progress := true))
          runq)
    t.Dswp.stages;
  (* --- operation plumbing --- *)
  let mem_words = Array.length mem in
  let issue s (p : pend) ~(mem_free : bool array) ~bus_free =
    (* returns bus_free after possibly consuming a slot; load/store
       slots are per-bank and consumed in place in [mem_free] *)
    match p.op with
    | OLoad addr ->
        let b = bank_of_addr addr in
        if not mem_free.(b) then bus_free
        else begin
          if addr < 0 || addr >= mem_words then
            fail "stage %d: load of address %d out of memory" s addr;
          complete s mem.(addr);
          mem_free.(b) <- false;
          bus_free
        end
    | OStore (addr, v) ->
        let b = bank_of_addr addr in
        if not mem_free.(b) then bus_free
        else begin
          if addr < 0 || addr >= mem_words then
            fail "stage %d: store to address %d out of memory" s addr;
          mem.(addr) <- Interp.norm v;
          complete s 0;
          mem_free.(b) <- false;
          bus_free
        end
    | OPrint v ->
        if not bus_free then bus_free
        else begin
          prints_rev.(s) := Int32.of_int v :: !(prints_rev.(s));
          complete s 0;
          false
        end
    | OQgive (qid, v) ->
        let q = queue_of qid in
        if (not bus_free) || Vsim.peek_h q.qi q.q_count > q.q_depth then
          bus_free
        else begin
          pulse q.qi q.q_gv 1;
          Vsim.poke_h q.qi q.q_gd v;
          p.ph <- Pulse_sent;
          false
        end
    | OQtake qid ->
        let q = queue_of qid in
        if (not bus_free) || Vsim.peek_h q.qi q.q_count < 1 then bus_free
        else begin
          pulse q.qi q.q_tv 1;
          p.ph <- Pulse_sent;
          false
        end
    | OSgive (sm, k) ->
        let sh = sems.(sm) in
        if not bus_free then bus_free
        else begin
          pulse sh.si sh.s_gv 1;
          Vsim.poke_h sh.si sh.s_gc k;
          p.ph <- Pulse_sent;
          false
        end
    | OStake (sm, k) ->
        let sh = sems.(sm) in
        if (not bus_free) || Vsim.peek_h sh.si sh.s_count < k then bus_free
        else begin
          pulse sh.si sh.s_tv 1;
          Vsim.poke_h sh.si sh.s_tc k;
          p.ph <- Pulse_sent;
          false
        end
  in
  let check_ack s (p : pend) =
    match (p.ph, p.op) with
    | Pulse_sent, OQgive (qid, _) ->
        let q = queue_of qid in
        if Vsim.peek_h q.qi q.q_gack = 1 then complete s 0
        else p.ph <- Await_ack
    | Await_ack, OQgive (qid, _) ->
        let q = queue_of qid in
        if Vsim.peek_h q.qi q.q_gack = 1 then complete s 0
    | Pulse_sent, OQtake qid ->
        let q = queue_of qid in
        if Vsim.peek_h q.qi q.q_tack = 1 then
          complete s (Vsim.peek_h q.qi q.q_td)
        else p.ph <- Wait_bus
    | Pulse_sent, OSgive _ -> complete s 0
    | Pulse_sent, OStake (sm, _) ->
        let sh = sems.(sm) in
        if Vsim.peek_h sh.si sh.s_tack = 1 then complete s 0
        else p.ph <- Wait_bus
    | _ -> ()
  in
  (* stage order on the module bus: the processor (all software stages,
     §4.1 "the processor always wins") first, then hardware by index *)
  let bus_order =
    List.filter (fun s -> not (is_hw s)) (List.init nstages Fun.id)
    @ List.filter is_hw (List.init nstages Fun.id)
  in
  let hw_stages = List.filter is_hw (List.init nstages Fun.id) in
  let finished () =
    (* allocation-free: this runs at the top of every cycle *)
    let ok = ref true in
    let s = ref 0 in
    while !ok && !s < nstages do
      (match thr.(!s) with
      | Some h -> ok := Vsim.peek_h h.ti h.t_done = 1 && preq.(!s) = None
      | None -> ok := results.(!s) <> None);
      incr s
    done;
    !ok
  in
  let hw_done_seen = Array.make nstages false in
  let cycle = ref 0 and last_progress = ref 0 in
  (* hoisted per-cycle workers so the loop body allocates nothing on
     quiescent cycles *)
  let wake_parked () =
    match !parked with
    | [] -> ()
    | ps ->
        let still = ref [] in
        List.iter
          (fun ((cond, k) as p) ->
            if cond () then Queue.add (fun () -> continue k ()) runq
            else still := p :: !still)
          ps;
        parked := !still
  in
  let check_acks s p = match p with Some p -> check_ack s p | None -> () in
  let mem_free = Array.make nbanks true and bus_free = ref true in
  let grant s =
    match preq.(s) with
    | Some p when p.ph = Wait_bus ->
        bus_free := issue s p ~mem_free ~bus_free:!bus_free
    | _ -> ()
  in
  (* --- the clock loop --- *)
  (try
     while not (finished ()) do
       if !cycle >= fuel_cycles then
         fail "co-simulation out of fuel after %d cycles" !cycle;
       if !progress then last_progress := !cycle;
       progress := false;
       if !cycle - !last_progress > 50_000 then begin
         let stuck =
           String.concat ", "
             (List.filter_map
                (fun s ->
                  match preq.(s) with
                  | Some p ->
                      Some
                        (Printf.sprintf "stage %d %s" s
                           (match p.op with
                           | OLoad _ -> "load"
                           | OStore _ -> "store"
                           | OQgive (q, _) -> Printf.sprintf "enqueue q%d" q
                           | OQtake q -> Printf.sprintf "dequeue q%d" q
                           | OSgive (m, _) -> Printf.sprintf "raise s%d" m
                           | OStake (m, _) -> Printf.sprintf "lower s%d" m
                           | OPrint _ -> "print"))
                  | None -> None)
                (List.init nstages Fun.id))
         in
         fail "co-simulation stuck at cycle %d (pending: %s)" !cycle
           (if stuck = "" then "none" else stuck)
       end;
       incr cycle;
       (* (a) wake fibers whose wait condition now holds, run each once *)
       wake_parked ();
       let k = Queue.length runq in
       for _ = 1 to k do
         (Queue.pop runq) ()
       done;
       (* (b) advance in-flight ops on last edge's acks, then grant buses *)
       Array.iteri check_acks preq;
       Array.fill mem_free 0 nbanks true;
       bus_free := true;
       List.iter grant bus_order;
       (* (c) one clock edge everywhere *)
       List.iter (fun (_, i) -> Vsim.step i) instances;
       List.iter Vsim.Vcd.sample dumpers;
       (* (d) drop the one-cycle pulses and replies; register new requests *)
       List.iter (fun (i, h) -> Vsim.poke_h i h 0) !pulses;
       pulses := [];
       List.iter
         (fun s ->
           let h = Option.get thr.(s) in
           Vsim.poke_h h.ti h.t_rv 0;
           preq.(s) <- None;
           progress := true)
         !replied;
       replied := [];
       List.iter
         (fun s ->
           let h = Option.get thr.(s) in
           if (not hw_done_seen.(s)) && Vsim.peek_h h.ti h.t_done = 1 then begin
             hw_done_seen.(s) <- true;
             progress := true
           end;
           if preq.(s) = None && Vsim.peek_h h.ti h.t_fcv = 1 then begin
             let code = Vsim.peek_h h.ti h.t_fcc in
             let target = Vsim.peek_h h.ti h.t_fct in
             let data = Vsim.peek_h h.ti h.t_fcd in
             let addr = Vsim.peek_h h.ti h.t_fca in
             let op =
               if code = Vemit.fc_load then OLoad addr
               else if code = Vemit.fc_store then OStore (addr, data)
               else if code = Vemit.fc_enqueue then OQgive (target, data)
               else if code = Vemit.fc_dequeue then OQtake target
               else if code = Vemit.fc_raise then OSgive (target, data)
               else if code = Vemit.fc_lower then OStake (target, data)
               else if code = Vemit.fc_print then OPrint data
               else fail "stage %d issued unsupported fc_%d" s code
             in
             if trace then
               ops_rev.(s) := (code, target, data, addr) :: !(ops_rev.(s));
             preq.(s) <- Some { ph = Wait_bus; op };
             progress := true
           end)
         hw_stages
     done
   with e ->
     List.iter Vsim.Vcd.close dumpers;
     raise e);
  List.iter Vsim.Vcd.close dumpers;
  (* --- collect the verdict --- *)
  let rtl_ret =
    if is_hw t.Dswp.master then
      let h = Option.get thr.(t.Dswp.master) in
      Int32.of_int (Vsim.peek_h h.ti h.t_retval)
    else
      match results.(t.Dswp.master) with
      | Some r -> r.Interp.ret
      | None -> fail "master stage did not finish"
  in
  let rtl_prints =
    let per_stage =
      List.init nstages (fun s ->
          if is_hw s then List.rev !(prints_rev.(s))
          else
            match results.(s) with
            | Some r -> r.Interp.prints
            | None -> [])
    in
    match List.filter (fun p -> p <> []) per_stage with
    | [] -> []
    | [ p ] -> p
    | _ -> fail "cosim: prints scattered across threads"
  in
  let rtl_ops = Array.map (fun r -> List.rev !r) ops_rev in
  let model_ret, model_prints, model_cycles, agree =
    match stats with
    | Some s ->
        ( s.Sim.ret,
          s.Sim.prints,
          s.Sim.cycles,
          rtl_ret = s.Sim.ret && rtl_prints = s.Sim.prints )
    | None -> (rtl_ret, rtl_prints, !cycle, true)
  in
  {
    rtl_ret;
    rtl_prints;
    rtl_cycles = !cycle;
    rtl_engine;
    model_ret;
    model_prints;
    model_cycles;
    agree;
    rtl_ops;
  }

(* Kept only for benchmark/layers.ml. *)
let run_threaded ~config ?engine ?vcd ?model ?trace ~design t =
  run ~config ?engine ?vcd ?model ?trace ~design t
    ~schedules:
      (Schedule.of_threaded ~backend:config.Sim.backend
         ~mem_banks:config.Sim.mem_banks t)
