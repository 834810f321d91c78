(* Verilog generators for the Twill hardware runtime (Chapter 4,
   Figure 4.1): FIFO queues with the size+1 circular buffer and give/ack
   protocol of §4.3, counting semaphores (§4.2), the priority bus arbiter
   (§4.1), the HWInterface glue (§4.4), and the top-level module that
   instantiates one of everything per the extracted design. *)

module Threadgen = Twill_dswp.Threadgen
module Dswp = Twill_dswp.Dswp
module Memdep = Twill_ir.Memdep

(* The FIFO queue primitive: [DEPTH] usable slots stored in a DEPTH+1
   circular buffer, stalling the producer by withholding the ack exactly
   as §4.3 describes. *)
let queue_module =
  {|// Twill runtime: FIFO queue primitive (section 4.3)
module twill_queue #(
  parameter WIDTH = 32,
  parameter DEPTH = 8
) (
  input  wire             clk,
  input  wire             rst,
  // give (enqueue) port
  input  wire             give_valid,
  input  wire [WIDTH-1:0] give_data,
  output reg              give_ack,
  // take (dequeue) port
  input  wire             take_valid,
  output reg  [WIDTH-1:0] take_data,
  output reg              take_ack
);
  // size+1 circular buffer: the producer stalls when the extra slot fills
  reg [WIDTH-1:0] buffer [0:DEPTH];
  reg [$clog2(DEPTH+1):0] head;
  reg [$clog2(DEPTH+1):0] tail;
  reg [$clog2(DEPTH+2):0] count;
  reg give_pend; // an extra-slot give awaiting its delayed ack

  always @(posedge clk) begin
    if (rst) begin
      head <= 0;
      tail <= 0;
      count <= 0;
      give_pend <= 1'b0;
      give_ack <= 1'b0;
      take_ack <= 1'b0;
    end else begin
      give_ack <= 1'b0;
      take_ack <= 1'b0;
      if (give_valid && count <= DEPTH) begin
        buffer[tail] <= give_data;
        tail <= (tail == DEPTH) ? 0 : tail + 1;
        give_pend <= (count >= DEPTH); // extra-slot push: stall the producer
        give_ack <= (count < DEPTH); // withhold the ack on the extra slot
      end
      if (take_valid && count != 0) begin
        take_data <= buffer[head];
        head <= (head == DEPTH) ? 0 : head + 1;
        take_ack <= 1'b1;
        // a freed slot releases the stalled producer (section 4.3)
        if (give_pend || (give_valid && count == DEPTH)) begin
          give_pend <= 1'b0;
          give_ack <= 1'b1;
        end
      end
      // one combined update so a simultaneous give+take keeps the count
      count <= count + ((give_valid && count <= DEPTH) ? 1 : 0)
                     - ((take_valid && count != 0) ? 1 : 0);
    end
  end
endmodule
|}

(* Counting semaphore (§4.2). *)
let semaphore_module =
  {|// Twill runtime: counting semaphore primitive (section 4.2)
module twill_semaphore #(
  parameter MAX_COUNT = 1,
  parameter INITIAL = 1
) (
  input  wire        clk,
  input  wire        rst,
  input  wire        give_valid,
  input  wire [31:0] give_count,
  input  wire        take_valid,
  input  wire [31:0] take_count,
  output reg         take_ack
);
  reg [31:0] count;
  always @(posedge clk) begin
    if (rst) begin
      count <= INITIAL;
      take_ack <= 1'b0;
    end else begin
      take_ack <= 1'b0;
      if (take_valid && count >= take_count)
        take_ack <= 1'b1;  // minimum two-cycle lower, as in section 4.2
      // one combined update so a simultaneous give+take keeps the count
      count <= count + ((give_valid && count + give_count <= MAX_COUNT) ? give_count : 0)
                     - ((take_valid && count >= take_count) ? take_count : 0);
    end
  end
endmodule
|}

(* Priority bus arbiter (§4.1): processor first, then messages destined
   for the processor, then longest-waiting. *)
let arbiter_module =
  {|// Twill runtime: module-bus arbiter (section 4.1)
module twill_bus_arbiter #(
  parameter N = 4
) (
  input  wire         clk,
  input  wire         rst,
  input  wire [N-1:0] request,
  input  wire         proc_request,   // the processor always wins
  input  wire [N-1:0] to_proc,        // messages headed to the processor
  output reg  [N-1:0] grant,
  output reg          proc_grant
);
  reg [7:0] age [0:N-1];
  integer i;
  integer best;
  always @(posedge clk) begin
    if (rst) begin
      grant <= 0;
      proc_grant <= 1'b0;
      for (i = 0; i < N; i = i + 1) age[i] <= 0;
    end else begin
      grant <= 0;
      proc_grant <= 1'b0;
      if (proc_request) begin
        proc_grant <= 1'b1;
      end else begin
        best = -1;
        // priority 1: messages to the processor
        for (i = 0; i < N; i = i + 1)
          if (request[i] && to_proc[i] && best == -1) best = i;
        // priority 2: longest-waiting requester
        for (i = 0; i < N; i = i + 1)
          if (request[i] && best == -1) best = i;
        if (best != -1) grant[best] <= 1'b1;
      end
      for (i = 0; i < N; i = i + 1)
        if (request[i] && !grant[i]) age[i] <= age[i] + 1;
        else age[i] <= 0;
    end
  end
endmodule
|}

(* HWInterface (§4.4): adapts a thread's one-call-per-cycle port onto the
   module and memory buses without adding latency on the request path. *)
let hw_interface_module =
  {|// Twill runtime: HWInterface between a hardware thread and the buses
// (section 4.4): latches the thread's call, arbitrates, returns results.
module twill_hw_interface (
  input  wire        clk,
  input  wire        rst,
  // thread side
  input  wire [3:0]  fc_code,
  input  wire [7:0]  fc_target,
  input  wire [31:0] fc_data,
  input  wire [31:0] fc_addr,
  input  wire        fc_valid,
  output reg  [3:0]  ret_code,
  output reg  [31:0] ret_data,
  output reg         ret_valid,
  // module bus side
  output reg         bus_request,
  input  wire        bus_grant,
  output reg  [43:0] bus_message,   // {target, op, data} per section 4.1
  input  wire [31:0] bus_reply_data,
  input  wire        bus_reply_valid,
  // memory bus side
  output reg         mem_request,
  input  wire        mem_grant,
  output reg         mem_write,
  output reg  [31:0] mem_addr,
  output reg  [31:0] mem_wdata,
  input  wire [31:0] mem_rdata,
  input  wire        mem_rvalid
);
|}
  ^ Printf.sprintf "  localparam FC_LOAD = 4'd%d, FC_STORE = 4'd%d;\n"
      Vemit.fc_load Vemit.fc_store
  ^ {|  reg pending;
  reg pending_is_mem;
  always @(posedge clk) begin
    if (rst) begin
      pending <= 1'b0;
      pending_is_mem <= 1'b0;
      ret_valid <= 1'b0;
      bus_request <= 1'b0;
      mem_request <= 1'b0;
    end else begin
      ret_valid <= 1'b0;
      if (fc_valid && !pending) begin
        pending <= 1'b1;
        if (fc_code == FC_LOAD || fc_code == FC_STORE) begin
          pending_is_mem <= 1'b1;
          mem_request <= 1'b1;
          mem_write <= (fc_code == FC_STORE);
          mem_addr <= fc_addr;
          mem_wdata <= fc_data;
        end else begin
          pending_is_mem <= 1'b0;
          bus_request <= 1'b1;
          bus_message <= {fc_target, fc_code, fc_data};
        end
      end
      if (pending && pending_is_mem && mem_grant) mem_request <= 1'b0;
      if (pending && !pending_is_mem && bus_grant) bus_request <= 1'b0;
      if (pending && pending_is_mem && mem_rvalid) begin
        ret_code <= fc_code;
        ret_data <= mem_rdata;
        ret_valid <= 1'b1;
        pending <= 1'b0;
      end
      if (pending && !pending_is_mem && bus_reply_valid) begin
        ret_code <= fc_code;
        ret_data <= bus_reply_data;
        ret_valid <= 1'b1;
        pending <= 1'b0;
      end
    end
  end
endmodule
|}

(* Round-robin software-thread scheduler (§4.4). *)
let scheduler_module =
  {|// Twill runtime: hardware round-robin scheduler for software threads
// (section 4.4): interrupts the processor with the next thread id.
module twill_scheduler #(
  parameter NTHREADS = 2,
  parameter PERIOD = 1024
) (
  input  wire clk,
  input  wire rst,
  input  wire active_blocked,   // snooped from the message bus
  output reg  [7:0] next_thread,
  output reg  irq
);
  reg [31:0] timer;
  always @(posedge clk) begin
    if (rst) begin
      timer <= 0;
      next_thread <= 0;
      irq <= 1'b0;
    end else begin
      irq <= 1'b0;
      timer <= timer + 1;
      if (timer >= PERIOD || active_blocked) begin
        timer <= 0;
        next_thread <= (next_thread + 1 < NTHREADS) ? next_thread + 1 : 0;
        irq <= 1'b1;
      end
    end
  end
endmodule
|}

(* Banked shared memory, generated per design from a {!Memdep.plan}.

   Each bank is an independent single-port RAM speaking exactly the
   memory-port protocol of [twill_hw_interface] (request/write/addr/
   wdata in, rdata/rvalid out) — byte-compatible per bank with the
   unbanked memory port, so the HWInterface and the call-port protocol
   of the thread modules are untouched.  Bank k's port only ever
   receives addresses the plan maps to bank k (the per-bank memory-bus
   arbiters route by the same static map), so each port's decode chain
   lists just its own regions: a block region contributes
   [local = local_base + (addr - region_base)], a cyclic region
   [local = local_base + (addr - region_base) / nbanks], and the tail
   past the laid-out image interleaves word-cyclically. *)
let emit_banked_memory (p : Memdep.plan) : string =
  let n = p.Memdep.pn in
  let w = p.Memdep.playout.Twill_ir.Layout.words_used in
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "// Twill runtime: banked shared memory (%d banks), generated\n" n;
  pr "// per design from the memory-disambiguation banking plan.\n";
  pr "module twill_banked_mem (\n";
  pr "  input  wire clk,\n  input  wire rst";
  for k = 0 to n - 1 do
    pr ",\n  // bank %d port (section 4.4 memory protocol)\n" k;
    pr "  input  wire        bk%d_request,\n" k;
    pr "  input  wire        bk%d_write,\n" k;
    pr "  input  wire [31:0] bk%d_addr,\n" k;
    pr "  input  wire [31:0] bk%d_wdata,\n" k;
    pr "  output reg  [31:0] bk%d_rdata,\n" k;
    pr "  output reg         bk%d_rvalid" k
  done;
  pr "\n);\n";
  (* in-image words per bank plus tail slack; synthesis sizes the BRAMs *)
  let slack = 1024 in
  for k = 0 to n - 1 do
    pr "  reg [31:0] bank%d [0:%d];\n" k (p.Memdep.bank_words.(k) + slack - 1);
    pr "  reg [31:0] loc%d;\n" k
  done;
  pr "\n  always @(posedge clk) begin\n";
  pr "    if (rst) begin\n";
  for k = 0 to n - 1 do
    pr "      bk%d_rvalid <= 1'b0;\n" k
  done;
  pr "    end else begin\n";
  for k = 0 to n - 1 do
    pr "      bk%d_rvalid <= 1'b0;\n" k;
    pr "      if (bk%d_request) begin\n" k;
    (* decode chain: only this bank's regions, in address order *)
    let first = ref true in
    List.iter
      (fun (r : Memdep.region) ->
        let guard body =
          if !first then begin
            pr "        if (bk%d_addr < %d) %s;\n" k (r.Memdep.r_base + r.Memdep.r_words) body;
            first := false
          end
          else
            pr "        else if (bk%d_addr < %d) %s;\n" k
              (r.Memdep.r_base + r.Memdep.r_words) body
        in
        match r.Memdep.r_policy with
        | Memdep.Pblock when r.Memdep.r_bank = k ->
            guard
              (Printf.sprintf "loc%d = %d + (bk%d_addr - %d)" k
                 r.Memdep.r_local.(k) k r.Memdep.r_base)
        | Memdep.Pblock -> ()
        | Memdep.Pcyclic ->
            guard
              (Printf.sprintf "loc%d = %d + ((bk%d_addr - %d) / %d)" k
                 r.Memdep.r_local.(k) k r.Memdep.r_base n))
      p.Memdep.regions;
    (* tail past the laid-out image: word-cyclic interleave *)
    if !first then
      pr "        loc%d = %d + ((bk%d_addr - %d) / %d);\n" k
        p.Memdep.tail_local.(k) k w n
    else
      pr "        else loc%d = %d + ((bk%d_addr - %d) / %d);\n" k
        p.Memdep.tail_local.(k) k w n;
    pr "        if (bk%d_write) bank%d[loc%d] <= bk%d_wdata;\n" k k k k;
    pr "        else bk%d_rdata <= bank%d[loc%d];\n" k k k;
    pr "        bk%d_rvalid <= 1'b1;\n" k;
    pr "      end\n"
  done;
  pr "    end\n  end\nendmodule\n";
  Buffer.contents buf

(* Top-level system (Figure 4.1): the extracted design's queues,
   semaphores, hardware threads and their interfaces, the two buses and
   the processor interface. *)
let emit_system ?plan (t : Dswp.threaded) : string =
  let buf = Buffer.create 16384 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let hw_stages = Dswp.hw_stages t in
  let physical =
    Array.to_list t.Dswp.queues
    |> List.filter (fun (q : Threadgen.queue_info) ->
           q.Threadgen.merged_into = None)
  in
  pr "// Twill top-level runtime system (Figure 4.1), generated\n";
  pr "// %d hardware threads, %d queues (%d channels), %d semaphores\n"
    (List.length hw_stages) (List.length physical)
    (Array.length t.Dswp.queues)
    t.Dswp.nsems;
  pr "module twill_system (\n  input wire clk,\n  input wire rst,\n";
  pr "  output wire done,\n  output wire [31:0] retval\n);\n\n";
  Array.iter
    (fun (q : Threadgen.queue_info) ->
      match q.Threadgen.merged_into with
      | Some tgt ->
          (* the comm optimizer rewrote this channel's operations onto a
             shared physical queue; no instance to emit *)
          pr "  // %s channel q%d merged into queue_%d (comm-opt)\n\n"
            q.Threadgen.purpose q.Threadgen.qid tgt
      | None ->
          pr "  // %s queue, stage %d -> %d%s\n" q.Threadgen.purpose
            q.Threadgen.src_stage q.Threadgen.dst_stage
            (if q.Threadgen.burst then " (burst-coalesced bus transactions)"
             else "");
          pr
            "  wire q%d_give_valid, q%d_give_ack, q%d_take_valid, \
             q%d_take_ack;\n"
            q.Threadgen.qid q.Threadgen.qid q.Threadgen.qid q.Threadgen.qid;
          pr "  wire [%d:0] q%d_give_data, q%d_take_data;\n"
            (q.Threadgen.width_bits - 1) q.Threadgen.qid q.Threadgen.qid;
          pr
            "  twill_queue #(.WIDTH(%d), .DEPTH(%d)) queue_%d (.clk(clk), \
             .rst(rst),\n\
            \    .give_valid(q%d_give_valid), .give_data(q%d_give_data), \
             .give_ack(q%d_give_ack),\n\
            \    .take_valid(q%d_take_valid), .take_data(q%d_take_data), \
             .take_ack(q%d_take_ack));\n\n"
            q.Threadgen.width_bits q.Threadgen.depth q.Threadgen.qid
            q.Threadgen.qid q.Threadgen.qid q.Threadgen.qid q.Threadgen.qid
            q.Threadgen.qid q.Threadgen.qid)
    t.Dswp.queues;
  for s = 0 to t.Dswp.nsems - 1 do
    pr "  wire s%d_give_valid, s%d_take_valid, s%d_take_ack;\n" s s s;
    pr "  wire [31:0] s%d_give_count, s%d_take_count;\n" s s;
    pr
      "  twill_semaphore #(.MAX_COUNT(1), .INITIAL(1)) sem_%d (.clk(clk), \
       .rst(rst),\n\
      \    .give_valid(s%d_give_valid), .give_count(s%d_give_count),\n\
      \    .take_valid(s%d_take_valid), .take_count(s%d_take_count), \
       .take_ack(s%d_take_ack));\n\n"
      s s s s s s
  done;
  List.iteri
    (fun k name ->
      pr "  // hardware thread %d: %s\n" k name;
      pr "  wire t%d_done;\n  wire [31:0] t%d_retval;\n" k k;
      pr "  wire [3:0] t%d_fc_code, t%d_ret_code;\n" k k;
      pr "  wire [7:0] t%d_fc_target;\n" k;
      pr "  wire [31:0] t%d_fc_data, t%d_fc_addr, t%d_ret_data;\n" k k k;
      pr "  wire t%d_fc_valid, t%d_ret_valid;\n" k k;
      pr
        "  twill_thread_%s thread_%d (.clk(clk), .rst(rst), .start(1'b1),\n\
        \    .done(t%d_done), .retval(t%d_retval),\n\
        \    .fc_code(t%d_fc_code), .fc_target(t%d_fc_target), \
         .fc_data(t%d_fc_data), .fc_addr(t%d_fc_addr), \
         .fc_valid(t%d_fc_valid),\n\
        \    .ret_code(t%d_ret_code), .ret_data(t%d_ret_data), \
         .ret_valid(t%d_ret_valid));\n\n"
        name k k k k k k k k k k k)
    hw_stages;
  let n = max 1 (List.length hw_stages) in
  pr "  // buses (section 4.1): one arbiter each\n";
  pr "  wire [%d:0] bus_request, bus_grant, bus_to_proc;\n" (n - 1);
  pr "  wire proc_request, proc_grant;\n";
  pr
    "  twill_bus_arbiter #(.N(%d)) module_bus (.clk(clk), .rst(rst),\n\
    \    .request(bus_request), .proc_request(proc_request), \
     .to_proc(bus_to_proc),\n\
    \    .grant(bus_grant), .proc_grant(proc_grant));\n\n"
    n;
  (match plan with
  | Some (p : Memdep.plan) when p.Memdep.pn > 1 ->
      let nb = p.Memdep.pn in
      pr "  // banked shared memory: one single-port bank + one memory-bus\n";
      pr "  // arbiter per bank, so accesses the dependence analysis proved\n";
      pr "  // disjoint proceed in parallel\n";
      for k = 0 to nb - 1 do
        pr "  wire [%d:0] mem%d_request, mem%d_grant, mem%d_to_proc;\n" (n - 1)
          k k k;
        pr "  wire mem%d_proc_request, mem%d_proc_grant;\n" k k;
        pr
          "  twill_bus_arbiter #(.N(%d)) memory_bus_%d (.clk(clk), \
           .rst(rst),\n\
          \    .request(mem%d_request), .proc_request(mem%d_proc_request), \
           .to_proc(mem%d_to_proc),\n\
          \    .grant(mem%d_grant), .proc_grant(mem%d_proc_grant));\n"
          n k k k k k k
      done;
      pr "\n";
      for k = 0 to nb - 1 do
        pr "  wire bk%d_request, bk%d_write, bk%d_rvalid;\n" k k k;
        pr "  wire [31:0] bk%d_addr, bk%d_wdata, bk%d_rdata;\n" k k k
      done;
      pr "  twill_banked_mem banked_mem (.clk(clk), .rst(rst)";
      for k = 0 to nb - 1 do
        pr
          ",\n\
          \    .bk%d_request(bk%d_request), .bk%d_write(bk%d_write), \
           .bk%d_addr(bk%d_addr),\n\
          \    .bk%d_wdata(bk%d_wdata), .bk%d_rdata(bk%d_rdata), \
           .bk%d_rvalid(bk%d_rvalid)"
          k k k k k k k k k k k k
      done;
      pr ");\n\n"
  | _ -> ());
  pr "  // software master runs on the processor; its return value is the\n";
  pr "  // program result (section 5.3)\n";
  pr "  assign done = %s;\n"
    (if hw_stages = [] then "1'b1"
     else
       String.concat " & "
         (List.mapi (fun k _ -> Printf.sprintf "t%d_done" k) hw_stages));
  pr "  assign retval = 32'd0; // produced by the processor interface\n";
  pr "endmodule\n";
  Buffer.contents buf

(* Everything needed to synthesise the extracted design: runtime
   primitives + one module per hardware thread + the system top.  The
   hardware threads and the transitive closure of their callees are each
   lowered from the table's schedule — the one rtsim times — and each
   non-inlined callee becomes a sub-thread module the parent
   instantiates. *)
let emit (schedules : Twill_hls.Schedule.table) (t : Dswp.threaded) : string =
  let layout = Twill_ir.Layout.build t.Dswp.modul in
  let plan = Twill_hls.Schedule.plan schedules in
  let hw_roots = Dswp.hw_stages t in
  let buf = Buffer.create 65536 in
  let add_module text =
    Buffer.add_string buf text;
    Buffer.add_string buf "\n"
  in
  List.iter add_module
    ([ queue_module; semaphore_module; arbiter_module; hw_interface_module;
       scheduler_module ]
    @ Option.to_list (Option.map emit_banked_memory plan));
  let emit_hw_thread =
    match Twill_hls.Schedule.backend schedules with
    | Twill_hls.Schedule.Fsm -> Vemit.emit_hw_thread
    | Twill_hls.Schedule.Dataflow -> Velastic.emit_hw_thread
  in
  let emitted = Hashtbl.create 16 in
  let rec emit_thread name =
    if not (Hashtbl.mem emitted name) then begin
      Hashtbl.replace emitted name ();
      let f = Twill_ir.Ir.find_func t.Dswp.modul name in
      List.iter emit_thread (Dswp.callees_of f);
      add_module
        (emit_hw_thread layout f (Twill_hls.Schedule.find schedules name))
    end
  in
  List.iter emit_thread hw_roots;
  Buffer.add_string buf (emit_system ?plan t);
  Buffer.contents buf

(* Kept only for benchmark/layers.ml. *)
let emit_design ?(backend = Twill_hls.Schedule.Fsm) ?(mem_banks = 1) t =
  emit (Twill_hls.Schedule.of_threaded ~backend ~mem_banks t) t
