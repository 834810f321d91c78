(* Verilog backend for hardware threads (thesis §5.4: LegUp's Verilog
   emission modified to signal the Twill runtime).

   This module owns the thread body both RTL lowerings share: the port
   list, the result registers, the callee sub-thread instances and their
   call-port mux, and the statements of every non-terminator micro-op.
   A backend adds only its control skeleton around them — here the
   monolithic FSM, in {!Velastic} the elastic stage pipeline.

   Under the FSM each hardware thread becomes one FSM-with-datapath
   module.  The state sequence follows the LegUp-substitute schedule:
   consecutive non-blocking instructions sharing a schedule slot share a
   state; every runtime operation (load/store over the memory bus,
   enqueue/dequeue, semaphores — §4.4's "one call per cycle" interface)
   issues through the HWInterface call port and, when it returns data,
   parks in a wait state until [ret_valid].  Phi nodes resolve on block
   transitions, exactly like the generated edge copies of the C backend.

   Function codes on the call port (§4.4: "the function code uniquely
   specifies whether to perform an enqueue, dequeue, raise, lower, load,
   store" ...) are the [fc_*] constants below; every reader of the port
   (the HWInterface template, the cosim harness) takes them from here. *)

open Twill_ir.Ir
module Vec = Twill_ir.Vec
module Schedule = Twill_hls.Schedule

let fc_load = 0
let fc_store = 1
let fc_enqueue = 2
let fc_dequeue = 3
let fc_raise = 4
let fc_lower = 5
let fc_print = 6

type micro =
  | Comb of int list (* non-blocking instructions sharing a state *)
  | Issue of int (* blocking op: drive the call port *)
  | Wait of int (* park until ret_valid; latch ret_data if it has a result *)
  | Call_issue of int (* latch args, raise the callee's start *)
  | Call_wait of int (* park until the callee's done; latch its retval *)
  | Term (* phi updates + branch *)

let is_blocking = function
  | Load _ | Store _ | Print _ | Produce _ | Consume _ | Sem_give _
  | Sem_take _ ->
      true
  | _ -> false

let is_call = function Call _ -> true | _ -> false

(* Linearise a block into micro-states. *)
let micros_of_block (f : func) (s : Schedule.t) (b : block) : micro list =
  let slot id = try Hashtbl.find s.Schedule.start_state id with Not_found -> 0 in
  let rec go acc cur cur_slot = function
    | [] ->
        let acc = if cur = [] then acc else Comb (List.rev cur) :: acc in
        List.rev (Term :: acc)
    | id :: rest ->
        let i = inst f id in
        if is_phi i then go acc cur cur_slot rest
        else if is_blocking i.kind then begin
          let acc = if cur = [] then acc else Comb (List.rev cur) :: acc in
          go (Wait id :: Issue id :: acc) [] (-1) rest
        end
        else if is_call i.kind then begin
          let acc = if cur = [] then acc else Comb (List.rev cur) :: acc in
          go (Call_wait id :: Call_issue id :: acc) [] (-1) rest
        end
        else if cur <> [] && slot id = cur_slot then
          go acc (id :: cur) cur_slot rest
        else begin
          let acc = if cur = [] then acc else Comb (List.rev cur) :: acc in
          go acc [ id ] (slot id) rest
        end
  in
  go [] [] (-1) b.insts

let reg_name id = Printf.sprintf "r%d" id

let operand_v (o : operand) ~(glob_addr : string -> int32) : string =
  match o with
  | Cst c -> Printf.sprintf "32'sd%ld" (Int32.logand c 0xFFFFFFFFl)
  | Reg r -> reg_name r
  | Argv a -> Printf.sprintf "arg%d" a
  | Glob g -> Printf.sprintf "32'sd%ld" (glob_addr g)

let binop_v op a b =
  let u x = Printf.sprintf "$unsigned(%s)" x in
  match op with
  | Add -> Printf.sprintf "%s + %s" a b
  | Sub -> Printf.sprintf "%s - %s" a b
  | Mul -> Printf.sprintf "%s * %s" a b
  | And -> Printf.sprintf "%s & %s" a b
  | Or -> Printf.sprintf "%s | %s" a b
  | Xor -> Printf.sprintf "%s ^ %s" a b
  | Shl -> Printf.sprintf "%s << (%s & 31)" a b
  | Lshr -> Printf.sprintf "%s >> (%s & 31)" (u a) b
  | Ashr -> Printf.sprintf "%s >>> (%s & 31)" a b
  | Sdiv -> Printf.sprintf "%s / %s" a b
  | Srem -> Printf.sprintf "%s %% %s" a b
  | Udiv -> Printf.sprintf "$signed(%s / %s)" (u a) (u b)
  | Urem -> Printf.sprintf "$signed(%s %% %s)" (u a) (u b)

let icmp_v op a b =
  let u x = Printf.sprintf "$unsigned(%s)" x in
  match op with
  | Eq -> Printf.sprintf "%s == %s" a b
  | Ne -> Printf.sprintf "%s != %s" a b
  | Slt -> Printf.sprintf "%s < %s" a b
  | Sle -> Printf.sprintf "%s <= %s" a b
  | Sgt -> Printf.sprintf "%s > %s" a b
  | Sge -> Printf.sprintf "%s >= %s" a b
  | Ult -> Printf.sprintf "%s < %s" (u a) (u b)
  | Ule -> Printf.sprintf "%s <= %s" (u a) (u b)
  | Ugt -> Printf.sprintf "%s > %s" (u a) (u b)
  | Uge -> Printf.sprintf "%s >= %s" (u a) (u b)

(* ---- the thread body both backends share ---- *)

type thread = {
  backend : Schedule.backend;
  f : func;
  layout : Twill_ir.Layout.t;
  buf : Buffer.t;
  ov : operand -> string;
  micros : micro array array;
  callees : (string * int) list;
  fcs : string;
}

let pr th fmt = Printf.ksprintf (Buffer.add_string th.buf) fmt

let callee_of (f : func) id =
  match (inst f id).kind with
  | Call (c, cargs) -> (c, cargs)
  | _ -> assert false

let begin_thread ~backend (layout : Twill_ir.Layout.t) (f : func)
    (s : Schedule.t) : thread =
  let micros = Array.make (Vec.length f.blocks) [||] in
  Vec.iter
    (fun (b : block) -> micros.(b.bid) <- Array.of_list (micros_of_block f s b))
    f.blocks;
  (* distinct callees, call-site arity: each becomes one sub-thread
     instance sharing the parent's call port through a start-selected mux *)
  let callees = ref [] in
  iter_insts f (fun i ->
      match i.kind with
      | Call (c, cargs) ->
          if not (List.mem_assoc c !callees) then
            callees := (c, Array.length cargs) :: !callees
      | _ -> ());
  let callees = List.rev !callees in
  let th =
    {
      backend;
      f;
      layout;
      buf = Buffer.create 8192;
      ov = operand_v ~glob_addr:(Twill_ir.Layout.global_address layout);
      micros;
      callees;
      (* with sub-threads present the parent drives internal _r copies
         of the call port; the mux hands the port to the active callee *)
      fcs = (if callees = [] then "" else "_r");
    }
  in
  let args =
    String.concat ""
      (List.init f.nparams (fun i ->
           Printf.sprintf "  input  wire signed [31:0] arg%d,\n" i))
  in
  pr th "// generated by Twill from function %s%s\n" f.name
    (match backend with
    | Schedule.Fsm -> ""
    | Dataflow -> " (elastic dataflow backend)");
  pr th "module twill_thread_%s (\n" f.name;
  pr th "  input  wire clk,\n  input  wire rst,\n  input  wire start,\n%s" args;
  pr th "  output reg  done,\n  output reg  signed [31:0] retval,\n";
  pr th "  // HWInterface call port (section 4.4)\n";
  let fc_kind = if callees = [] then "reg " else "wire" in
  pr th "  output %s [3:0]  fc_code,\n" fc_kind;
  pr th "  output %s [7:0]  fc_target,\n" fc_kind;
  pr th "  output %s signed [31:0] fc_data,\n" fc_kind;
  pr th "  output %s [31:0] fc_addr,\n" fc_kind;
  pr th "  output %s        fc_valid,\n" fc_kind;
  pr th "  input  wire [3:0]  ret_code,\n";
  pr th "  input  wire signed [31:0] ret_data,\n";
  pr th "  input  wire        ret_valid\n);\n\n";
  th

let emit_datapath th =
  iter_insts th.f (fun i ->
      if has_result i.kind then
        pr th "  reg signed [31:0] %s;\n" (reg_name i.id));
  if th.callees <> [] then begin
    pr th "\n  // parent-driven copy of the call port (muxed with callees)\n";
    pr th "  reg [3:0]  fc_code_r;\n";
    pr th "  reg [7:0]  fc_target_r;\n";
    pr th "  reg signed [31:0] fc_data_r;\n";
    pr th "  reg [31:0] fc_addr_r;\n";
    pr th "  reg        fc_valid_r;\n";
    List.iter
      (fun (c, arity) ->
        (match th.backend with
        | Schedule.Fsm -> pr th "\n  // sub-FSM for callee %s (section 5.4)\n" c
        | Dataflow -> pr th "\n  // sub-thread for callee %s\n" c);
        pr th "  reg call_%s_start;\n" c;
        for i = 0 to arity - 1 do
          pr th "  reg signed [31:0] call_%s_arg%d;\n" c i
        done;
        pr th "  wire call_%s_done;\n" c;
        pr th "  wire signed [31:0] call_%s_retval;\n" c;
        pr th "  wire [3:0]  call_%s_fc_code;\n" c;
        pr th "  wire [7:0]  call_%s_fc_target;\n" c;
        pr th "  wire signed [31:0] call_%s_fc_data;\n" c;
        pr th "  wire [31:0] call_%s_fc_addr;\n" c;
        pr th "  wire        call_%s_fc_valid;\n" c;
        pr th "  twill_thread_%s call_%s_i (.clk(clk), .rst(rst), \
               .start(call_%s_start),\n"
          c c c;
        for i = 0 to arity - 1 do
          pr th "    .arg%d(call_%s_arg%d),\n" i c i
        done;
        pr th "    .done(call_%s_done), .retval(call_%s_retval),\n" c c;
        pr th "    .fc_code(call_%s_fc_code), .fc_target(call_%s_fc_target),\n"
          c c;
        pr th "    .fc_data(call_%s_fc_data), .fc_addr(call_%s_fc_addr), \
               .fc_valid(call_%s_fc_valid),\n"
          c c c;
        pr th "    .ret_code(ret_code), .ret_data(ret_data), \
               .ret_valid(ret_valid));\n")
      th.callees;
    (* only the active callee (start held high) owns the port; the parent
       blocks in Call_wait meanwhile, so at most one is active *)
    pr th "\n";
    List.iter
      (fun field ->
        let arms =
          String.concat ""
            (List.map
               (fun (c, _) ->
                 Printf.sprintf "call_%s_start ? call_%s_%s : " c c field)
               th.callees)
        in
        pr th "  assign %s = %s%s_r;\n" field arms field)
      [ "fc_code"; "fc_target"; "fc_data"; "fc_addr"; "fc_valid" ]
  end

let emit_reset th resets =
  pr th "\n  always @(posedge clk) begin\n    if (rst) begin\n";
  List.iter (pr th "      %s\n") resets;
  pr th "      fc_valid%s <= 1'b0;\n" th.fcs;
  List.iter (fun (c, _) -> pr th "      call_%s_start <= 1'b0;\n" c) th.callees

(* nonblocking assignment gives parallel-copy semantics for free *)
let emit_phis th ~ind ~pred ~target =
  List.iter
    (fun id ->
      match (inst th.f id).kind with
      | Phi incoming -> (
          match List.assoc_opt pred incoming with
          | Some v -> pr th "%s%s <= %s;\n" ind (reg_name id) (th.ov v)
          | None -> ())
      | _ -> ())
    (block th.f target).insts

let ret_value th = function Some v -> th.ov v | None -> "32'sd0"

let emit_micro th ~ind ~label ~advance ~term m =
  let f = th.f and ov = th.ov and fcs = th.fcs in
  let line fmt = Printf.ksprintf (pr th "%s  %s\n" ind) fmt in
  (match m with
  | Wait _ -> pr th "%s%d: if (ret_valid) begin\n" ind label
  | Call_wait id ->
      pr th "%s%d: if (call_%s_done) begin\n" ind label (fst (callee_of f id))
  | _ -> pr th "%s%d: begin\n" ind label);
  (match m with
  | Comb ids ->
      (* blocking assignments: operation chaining within a state must see
         same-state results (classic FSMD datapath style) *)
      List.iter
        (fun id ->
          let rn = reg_name id in
          match (inst f id).kind with
          | Binop (op, a, b) -> line "%s = %s;" rn (binop_v op (ov a) (ov b))
          | Icmp (op, a, b) ->
              line "%s = (%s) ? 32'sd1 : 32'sd0;" rn (icmp_v op (ov a) (ov b))
          | Select (c, a, b) ->
              line "%s = (%s != 0) ? %s : %s;" rn (ov c) (ov a) (ov b)
          | Gep (a, idx) -> line "%s = %s + %s;" rn (ov a) (ov idx)
          | Alloca _ ->
              line "%s = 32'sd%ld;" rn
                (Twill_ir.Layout.alloca_address th.layout f.name id)
          | _ -> ())
        ids
  | Issue id ->
      let drive port v = line "fc_%s%s <= %s;" port fcs v in
      let code c = drive "code" (Printf.sprintf "4'd%d" c)
      and addr a = drive "addr" (Printf.sprintf "$unsigned(%s)" (ov a))
      and target n = drive "target" (Printf.sprintf "8'd%d" n)
      and data v = drive "data" (ov v)
      and count n = drive "data" (Printf.sprintf "32'sd%d" n) in
      (match (inst f id).kind with
      | Load a -> code fc_load; addr a
      | Store (a, v) -> code fc_store; addr a; data v
      | Produce (q, v) -> code fc_enqueue; target q; data v
      | Consume q -> code fc_dequeue; target q
      | Sem_give (sm, n) -> code fc_raise; target sm; count n
      | Sem_take (sm, n) -> code fc_lower; target sm; count n
      | Print v -> code fc_print; data v
      | _ -> ());
      drive "valid" "1'b1"
  | Wait id ->
      line "fc_valid%s <= 1'b0;" fcs;
      if has_result (inst f id).kind then line "%s <= ret_data;" (reg_name id)
  | Call_issue id ->
      let c, cargs = callee_of f id in
      Array.iteri (fun k a -> line "call_%s_arg%d <= %s;" c k (ov a)) cargs;
      line "call_%s_start <= 1'b1;" c
  | Call_wait id ->
      let c, _ = callee_of f id in
      line "call_%s_start <= 1'b0;" c;
      if has_result (inst f id).kind then
        line "%s <= call_%s_retval;" (reg_name id) c
  | Term -> term ());
  if m <> Term then line "%s" advance;
  pr th "%send\n" ind

(* Emits one hardware-thread module under the FSM template: a central
   [state] register numbering every block's micro-states contiguously. *)
let emit_hw_thread (layout : Twill_ir.Layout.t) (f : func) (s : Schedule.t) :
    string =
  let th = begin_thread ~backend:Schedule.Fsm layout f s in
  let pr fmt = pr th fmt in
  let base = Array.make (Vec.length f.blocks) 0 in
  let next = ref 1 (* state 0 = idle/start *) in
  Vec.iter
    (fun (b : block) ->
      base.(b.bid) <- !next;
      next := !next + Array.length th.micros.(b.bid))
    f.blocks;
  let st_done = !next in
  let width =
    max 1 (int_of_float (ceil (log (float_of_int (st_done + 1)) /. log 2.0)))
  in
  pr "  reg [%d:0] state;\n" (width - 1);
  emit_datapath th;
  emit_reset th [ "state <= 0;"; "done <= 1'b0;" ];
  pr "    end else begin\n";
  pr "      case (state)\n";
  pr "        0: if (start) state <= %d;\n" base.(f.entry);
  (* edge transition: phi updates then jump to target block's first state *)
  let edge ~pred ~target =
    emit_phis th ~ind:"          " ~pred ~target;
    pr "          state <= %d;\n" base.(target)
  in
  Vec.iter
    (fun (b : block) ->
      let term () =
        match b.term with
        | Br t -> edge ~pred:b.bid ~target:t
        | Cond_br (c, t, e) ->
            pr "          if (%s != 0) begin\n" (th.ov c);
            edge ~pred:b.bid ~target:t;
            pr "          end else begin\n";
            edge ~pred:b.bid ~target:e;
            pr "          end\n"
        | Ret v ->
            pr "          retval <= %s;\n" (ret_value th v);
            pr "          done <= 1'b1;\n";
            pr "          state <= %d;\n" st_done
      in
      Array.iteri
        (fun k m ->
          let st = base.(b.bid) + k in
          emit_micro th ~ind:"        " ~label:st
            ~advance:(Printf.sprintf "state <= %d;" (st + 1))
            ~term m)
        th.micros.(b.bid))
    f.blocks;
  (* halted: hold [done] until the caller drops [start], then rearm so
     the module is callable again as a sub-FSM *)
  pr "        %d: begin\n" st_done;
  pr "          done <= 1'b1;\n";
  pr "          if (!start) begin\n";
  pr "            done <= 1'b0;\n";
  pr "            state <= 0;\n";
  pr "          end\n        end\n";
  pr "        default: state <= 0;\n";
  pr "      endcase\n    end\n  end\n";
  pr "endmodule\n";
  Buffer.contents th.buf
