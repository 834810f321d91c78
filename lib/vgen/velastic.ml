(* Elastic dataflow Verilog backend for hardware threads (the second RTL
   lowering, after the Cheng/Wawrzynek dataflow architectural template
   and StreamBlocks' actor pipelines).

   Where {!Vemit} builds one monolithic FSM-with-datapath, this backend
   lowers every scheduled basic block to a latency-insensitive *stage*:
   a one-hot token register plus a small step counter, connected to its
   CFG successors by explicit valid/ready handshake channels.  Control is
   fully distributed — there is no central state register and no wide
   state decoder; a stage fires its terminator edge only when the
   successor's channel is ready, and a stage waiting on the runtime call
   port raises its [stall] flag instead of freezing a global machine.

   The handshake contract per CFG edge (p -> t):

     ev_p_t   = token at p's terminator step  &&  p's branch selects t
     rdy_t    = !tok_t  ||  fire_t          (t is free, or frees this cycle)
     transfer = ev_p_t && rdy_t             (token moves, t restarts at step 0)

   Sequential C programs carry exactly one control token, so [rdy] is
   vacuously high in steady state — but the protocol is emitted and
   honoured, which is what the handshake unit tests and the three-way
   cosim oracle check.  Everything but that control skeleton — ports,
   result registers, callee sub-threads and their port mux, phi copies
   and every micro-op's statements — is {!Vemit}'s shared thread body,
   so the external interface is the FSM backend's and both backends
   speak the identical call-port protocol per operation.  This module
   keeps the token/step registers, the fire/rdy/stall/ev wires, the
   per-stage [case] and the edge and [Ret] handling. *)

open Twill_ir.Ir
module Vec = Twill_ir.Vec

(* Emits one hardware-thread module under the elastic template. *)
let emit_hw_thread (layout : Twill_ir.Layout.t) (f : func)
    (s : Twill_hls.Schedule.t) : string =
  let th = Vemit.begin_thread ~backend:Twill_hls.Schedule.Dataflow layout f s in
  let pr fmt = Vemit.pr th fmt in
  let micros = th.Vemit.micros in
  let term_step bid = Array.length micros.(bid) - 1 in
  let step_width bid =
    let n = Array.length micros.(bid) in
    max 1 (int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.0)))
  in
  (* distinct CFG edges, in block order *)
  let edges =
    List.concat_map
      (fun (b : block) ->
        List.map
          (fun t -> (b.bid, t))
          (List.sort_uniq compare (succs_of_term b.term)))
      (Vec.to_list f.blocks)
  in
  pr "  // elastic stage state: one token + step counter per basic block\n";
  pr "  reg idle;\n  reg halted;\n";
  Vec.iter
    (fun (b : block) ->
      pr "  reg tok_%d;\n" b.bid;
      pr "  reg [%d:0] step_%d;\n" (step_width b.bid - 1) b.bid)
    f.blocks;
  Vemit.emit_datapath th;
  (* handshake fabric: per-stage fire/ready/stall, per-edge valid *)
  pr "\n  // valid/ready handshake channels between stages\n";
  Vec.iter
    (fun (b : block) ->
      pr "  wire fire_%d;\n" b.bid;
      pr "  wire rdy_%d;\n" b.bid;
      pr "  wire stall_%d;\n" b.bid)
    f.blocks;
  List.iter (fun (p, t) -> pr "  wire ev_%d_%d;\n" p t) edges;
  pr "\n";
  Vec.iter
    (fun (b : block) ->
      pr "  assign fire_%d = tok_%d && (step_%d == %d);\n" b.bid b.bid b.bid
        (term_step b.bid);
      pr "  assign rdy_%d = !tok_%d || fire_%d;\n" b.bid b.bid b.bid;
      (* a stage stalls while parked on the call port or a callee *)
      let waits =
        Array.to_list micros.(b.bid)
        |> List.mapi (fun k m -> (k, m))
        |> List.filter_map (fun (k, m) ->
               match m with
               | Vemit.Wait _ ->
                   Some (Printf.sprintf "((step_%d == %d) && !ret_valid)"
                           b.bid k)
               | Vemit.Call_wait id ->
                   Some (Printf.sprintf "((step_%d == %d) && !call_%s_done)"
                           b.bid k (fst (Vemit.callee_of f id)))
               | _ -> None)
      in
      match waits with
      | [] -> pr "  assign stall_%d = 1'b0;\n" b.bid
      | ws ->
          pr "  assign stall_%d = tok_%d && (%s);\n" b.bid b.bid
            (String.concat " || " ws))
    f.blocks;
  List.iter
    (fun (p, t) ->
      let b = block f p in
      let cond =
        match b.term with
        | Br _ -> "1'b1"
        | Cond_br (c, bt, be) ->
            if bt = be then "1'b1"
            else if t = bt then Printf.sprintf "(%s != 0)" (th.ov c)
            else Printf.sprintf "(%s == 0)" (th.ov c)
        | Ret _ -> "1'b0"
      in
      pr "  assign ev_%d_%d = fire_%d && %s;\n" p t p cond)
    edges;
  (* token handoff over one CFG edge: phi parallel copies, then the
     transfer, gated on the successor channel's ready *)
  let emit_edge ~pred ~target =
    pr "              if (rdy_%d) begin\n" target;
    Vemit.emit_phis th ~ind:"                " ~pred ~target;
    if target = pred then pr "                step_%d <= 0;\n" pred
    else begin
      pr "                tok_%d <= 1'b0;\n" pred;
      pr "                tok_%d <= 1'b1;\n" target;
      pr "                step_%d <= 0;\n" target
    end;
    pr "              end\n"
  in
  Vemit.emit_reset th
    ([ "idle <= 1'b1;"; "halted <= 1'b0;"; "done <= 1'b0;" ]
    @ List.map
        (fun (b : block) -> Printf.sprintf "tok_%d <= 1'b0;" b.bid)
        (Vec.to_list f.blocks));
  pr "    end else if (idle) begin\n";
  pr "      if (start) begin\n";
  pr "        idle <= 1'b0;\n";
  pr "        tok_%d <= 1'b1;\n" f.entry;
  pr "        step_%d <= 0;\n" f.entry;
  pr "      end\n";
  pr "    end else if (halted) begin\n";
  pr "      done <= 1'b1;\n";
  pr "      if (!start) begin\n";
  pr "        done <= 1'b0;\n        halted <= 1'b0;\n        idle <= 1'b1;\n";
  pr "      end\n";
  pr "    end else begin\n";
  Vec.iter
    (fun (b : block) ->
      pr "      if (tok_%d) begin\n" b.bid;
      pr "        case (step_%d)\n" b.bid;
      (* the branch fires the first successor whose edge is valid *)
      let branch targets =
        List.iteri
          (fun i t ->
            pr "            %sif (ev_%d_%d) begin\n"
              (if i = 0 then "" else "end else ")
              b.bid t;
            emit_edge ~pred:b.bid ~target:t)
          targets;
        pr "            end\n"
      in
      let term () =
        match b.term with
        | Br t -> branch [ t ]
        | Cond_br (_, t, e) -> branch (if t = e then [ t ] else [ t; e ])
        | Ret v ->
            pr "            retval <= %s;\n" (Vemit.ret_value th v);
            pr "            done <= 1'b1;\n";
            pr "            halted <= 1'b1;\n";
            pr "            tok_%d <= 1'b0;\n" b.bid
      in
      Array.iteri
        (fun k m ->
          Vemit.emit_micro th ~ind:"          " ~label:k
            ~advance:(Printf.sprintf "step_%d <= %d;" b.bid (k + 1))
            ~term m)
        micros.(b.bid);
      pr "          default: step_%d <= 0;\n" b.bid;
      pr "        endcase\n";
      pr "      end\n")
    f.blocks;
  pr "    end\n  end\n";
  pr "endmodule\n";
  Buffer.contents th.Vemit.buf
