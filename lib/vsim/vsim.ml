(* Elaborator + two-phase cycle simulator for the emitted Verilog subset.

   Elaboration flattens the instance hierarchy into one net table
   (dotted names) plus flat lists of continuous assigns and always
   bodies, constant-folding parameters, localparams and ranges.  Port
   connections become continuous assigns: inputs are driven by the
   parent-scope expression, outputs drive the parent net.

   Everything compiles to closures over two stores: [vals] for scalars
   and [mems] for memories.  The value invariant is canonical form —
   signed nets hold sign-extended OCaml ints, unsigned nets hold masked
   non-negative ints — so comparisons and arithmetic on converted
   operands are plain int operations.  Expression typing follows the
   Verilog rules the emitters rely on: context width is the max of the
   operand widths, signedness is the conjunction, shifts take the left
   operand's type, concatenation is self-determined and unsigned.

   One closure compiler feeds two scheduling engines over the two
   stores.  The compiler is deliberately naive: every node canonicalises
   its result with one [canon] call and nothing is folded or specialised
   at elaboration, because constant folding, pre-masked conversions and
   specialised writers buy only about 1.1x in whole-design
   co-simulation (EXPERIMENTS.md).  The levelized engine (default) runs
   the closures in rank order off a dirty worklist; the fixpoint engine
   re-evaluates every assign to convergence.  Fixpoint is the semantic
   oracle and the automatic fallback for designs whose assign graph has
   a combinational cycle.

   The levelized scheduler topologically sorts the continuous assigns
   by their read/write net sets at elaboration and keeps a dirty
   worklist seeded by every effective net write (poke, blocking write,
   nonblocking commit), so a settle evaluates each affected assign
   exactly once in rank order and a quiescent design settles in O(1). *)

module P = Vparse
module Vec = Twill_ir.Vec

exception Elab_error of string * int
exception Sim_error of string

let mask_bits w v = if w >= 62 then v else v land ((1 lsl w) - 1)

let canon w sg v =
  if w >= 62 then v
  else
    let m = v land ((1 lsl w) - 1) in
    if sg && m land (1 lsl (w - 1)) <> 0 then m - (1 lsl w) else m

let clog2 n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  if n <= 1 then 0 else go 0 1

(* constant folding for parameters, ranges and case labels *)
let rec ceval (env : (string, int) Hashtbl.t) (e : P.expr) (line : int) : int =
  match e with
  | P.Num (v, w, sg) -> if w = 0 then v else canon w sg v
  | P.Id x -> (
      match Hashtbl.find_opt env x with
      | Some v -> v
      | None -> raise (Elab_error ("not a constant: " ^ x, line)))
  | P.Unop ("-", a) -> -ceval env a line
  | P.Unop ("!", a) -> if ceval env a line = 0 then 1 else 0
  | P.Unop ("~", a) -> lnot (ceval env a line)
  | P.Unop (op, _) -> raise (Elab_error ("bad constant operator " ^ op, line))
  | P.Binop (op, a, b) -> (
      let x = ceval env a line and y = ceval env b line in
      match op with
      | "+" -> x + y
      | "-" -> x - y
      | "*" -> x * y
      | "/" -> if y = 0 then 0 else x / y
      | "%" -> if y = 0 then 0 else x mod y
      | "&" -> x land y
      | "|" -> x lor y
      | "^" -> x lxor y
      | "<<" -> x lsl y
      | ">>" -> x lsr y
      | ">>>" -> x asr y
      | "==" -> Bool.to_int (x = y)
      | "!=" -> Bool.to_int (x <> y)
      | "<" -> Bool.to_int (x < y)
      | "<=" -> Bool.to_int (x <= y)
      | ">" -> Bool.to_int (x > y)
      | ">=" -> Bool.to_int (x >= y)
      | "&&" -> Bool.to_int (x <> 0 && y <> 0)
      | "||" -> Bool.to_int (x <> 0 || y <> 0)
      | op -> raise (Elab_error ("bad constant operator " ^ op, line)))
  | P.Ternary (c, a, b) ->
      if ceval env c line <> 0 then ceval env a line else ceval env b line
  | P.Sysfun ("$clog2", a) -> clog2 (ceval env a line)
  | P.Sysfun (("$signed" | "$unsigned"), a) -> ceval env a line
  | _ -> raise (Elab_error ("not a constant expression", line))

(* ---- elaborated design -------------------------------------------------- *)

type net = { nname : string; w : int; sg : bool; asize : int (* 0 = scalar *) }

(* Nonblocking-assign queue: a flat int array with four slots per entry
   ([kind; net; index; raw value], kind 0 = scalar, 1 = element, 2 =
   bit) so the hot enqueue path in always bodies allocates nothing. *)
type pqueue = { mutable pbuf : int array; mutable plen : int (* entries *) }

let pq_push (q : pqueue) kind i j v =
  let off = q.plen * 4 in
  if off + 4 > Array.length q.pbuf then begin
    let nb = Array.make (max 256 (2 * Array.length q.pbuf)) 0 in
    Array.blit q.pbuf 0 nb 0 off;
    q.pbuf <- nb
  end;
  let b = q.pbuf in
  b.(off) <- kind;
  b.(off + 1) <- i;
  b.(off + 2) <- j;
  b.(off + 3) <- v;
  q.plen <- q.plen + 1

type engine = Levelized | Fixpoint

let engine_name = function
  | Levelized -> "levelized"
  | Fixpoint -> "fixpoint"

(* Levelized scheduler state: [lrun] holds the assign closures in rank
   (topological) order, [lnfan] maps a net to the rank positions of the
   assigns reading it, [lwnet.(p)] is position [p]'s destination net.
   [lqueued]/[lnq]/[lqmin] form the assign dirty worklist: positions
   marked between settles are drained by one forward sweep, and marks
   made during a sweep always land ahead of the cursor because readers
   rank strictly after writers.

   Always bodies are activity-gated the same way: a proc is a
   deterministic function of the nets it reads (its state registers
   included), so it only needs to run at an edge if one of those nets
   changed since its last run.  [pnfan] maps a net to the procs reading
   it and [pqueued] holds the per-proc run flags; an idle primitive
   (inputs and state unchanged) costs O(#procs) flag checks per cycle
   instead of re-executing its always body. *)
type lev = {
  lrun : (unit -> bool) array;
  lwnet : int array;
  lnfan : int array array;
  pnfan : int array array;
  lqueued : bool array;
  pqueued : bool array;
  mutable lnq : int;
  mutable lqmin : int;
  mutable pnq : int; (* #procs queued: a zero makes a whole step a no-op *)
}

type engine_state =
  | Elev of lev
  | Efix of (unit -> bool) array (* declaration order; run to fixpoint *)

type t = {
  nets : net array;
  index : (string, int) Hashtbl.t;
  vals : int array;
  mems : int array array;
  eng : engine_state;
  engv : engine;
  procs : (unit -> unit) array; (* always bodies, declaration order *)
  pq : pqueue; (* nonblocking queue, program order *)
  touch : int -> unit; (* net changed: seed the dirty worklist *)
  sdirty : bool ref; (* some net changed since the last settle *)
  tinputs : string list; (* top module's input ports, declaration order *)
  mutable cyc : int;
}

type scope = { spfx : string; senv : (string, int) Hashtbl.t }

type flat_assign = {
  (* destination and source may live in different scopes (port connects) *)
  dsc : scope;
  dlv : P.lval;
  rsc : scope;
  rhs : P.expr;
  aline : int;
}

(* ---- pass 1: flatten the hierarchy, declaring every net ----------------- *)

let flatten (design : P.design) (top : string) (overrides : (string * int) list)
    =
  let nets = ref [] and nnets = ref 0 in
  let index = Hashtbl.create 512 in
  let cassigns = ref [] and procs = ref [] in
  let inputs = ref [] in
  let add_net name w sg asize line =
    if Hashtbl.mem index name then
      raise (Elab_error ("duplicate net " ^ name, line));
    Hashtbl.replace index name !nnets;
    nets := { nname = name; w; sg; asize } :: !nets;
    incr nnets
  in
  let port_dir (m : P.modul) (p : string) (line : int) : P.port_dir =
    let rec go = function
      | P.Decl d :: _ when d.P.dname = p && d.P.dport <> P.Local -> d.P.dport
      | _ :: rest -> go rest
      | [] ->
          raise
            (Elab_error
               (Printf.sprintf "module %s has no port %s" m.P.mname p, line))
    in
    go m.P.mitems
  in
  let rec instmod (m : P.modul) (prefix : string)
      (pvals : (string * int) list) : scope =
    let env = Hashtbl.create 16 in
    List.iter
      (fun (p, dflt) ->
        let v =
          match List.assoc_opt p pvals with
          | Some v -> v
          | None -> ceval env dflt m.P.mline
        in
        Hashtbl.replace env p v)
      m.P.mparams;
    List.iter
      (fun (p, _) ->
        if not (List.mem_assoc p m.P.mparams) then
          raise
            (Elab_error
               (Printf.sprintf "module %s has no parameter %s" m.P.mname p,
                m.P.mline)))
      pvals;
    let scope = { spfx = prefix; senv = env } in
    List.iter
      (fun (it : P.item) ->
        match it with
        | P.Decl d ->
            let w, sg =
              match d.P.dkind with
              | P.Integer -> (32, true)
              | _ -> (
                  match d.P.drange with
                  | None -> (1, d.P.dsigned)
                  | Some (msb, lsb) ->
                      let msb = ceval env msb d.P.dline
                      and lsb = ceval env lsb d.P.dline in
                      if lsb <> 0 || msb < 0 then
                        raise (Elab_error ("unsupported range", d.P.dline));
                      (msb + 1, d.P.dsigned))
            in
            let asize =
              match d.P.darray with
              | None -> 0
              | Some (lo, hi) ->
                  let lo = ceval env lo d.P.dline
                  and hi = ceval env hi d.P.dline in
                  if lo <> 0 || hi < lo then
                    raise (Elab_error ("unsupported array bounds", d.P.dline));
                  hi + 1
            in
            add_net (prefix ^ d.P.dname) w sg asize d.P.dline;
            if prefix = "" && d.P.dport = P.In && asize = 0 then
              inputs := d.P.dname :: !inputs
        | P.Param (n, e) -> Hashtbl.replace env n (ceval env e m.P.mline)
        | P.Cassign (lv, rhs) ->
            cassigns :=
              { dsc = scope; dlv = lv; rsc = scope; rhs; aline = lv.P.lline }
              :: !cassigns
        | P.Always (_clk, body) -> procs := (scope, body) :: !procs
        | P.Instance { imod; iname; iparams; iports; iline } ->
            let cm =
              try P.find_module design imod
              with Not_found ->
                raise (Elab_error ("unknown module " ^ imod, iline))
            in
            let pvals' =
              List.map (fun (p, e) -> (p, ceval env e iline)) iparams
            in
            let cscope = instmod cm (prefix ^ iname ^ ".") pvals' in
            List.iter
              (fun (p, conn) ->
                match conn with
                | None -> ()
                | Some e -> (
                    match port_dir cm p iline with
                    | P.In ->
                        cassigns :=
                          {
                            dsc = cscope;
                            dlv = { P.base = p; index = None; lline = iline };
                            rsc = scope;
                            rhs = e;
                            aline = iline;
                          }
                          :: !cassigns
                    | P.Out -> (
                        match e with
                        | P.Id x ->
                            cassigns :=
                              {
                                dsc = scope;
                                dlv =
                                  { P.base = x; index = None; lline = iline };
                                rsc = cscope;
                                rhs = P.Id p;
                                aline = iline;
                              }
                              :: !cassigns
                        | _ ->
                            raise
                              (Elab_error
                                 ( "output port " ^ p
                                   ^ " must connect to a plain net",
                                   iline )))
                    | P.Local -> assert false))
              iports)
      m.P.mitems;
    scope
  in
  let tm =
    try P.find_module design top
    with Not_found -> raise (Elab_error ("unknown module " ^ top, 0))
  in
  ignore (instmod tm "" overrides);
  ( Array.of_list (List.rev !nets),
    index,
    List.rev !cassigns,
    List.rev !procs,
    List.rev !inputs )

(* ---- pass 2: compile everything to closures ----------------------------- *)

type cexpr = { cw : int; cs : bool; ev : unit -> int }

let instantiate ?(engine = Levelized) ?(overrides = []) (design : P.design)
    (top : string) : t =
  let nets, index, cassigns, procs, tinputs = flatten design top overrides in
  let n = Array.length nets in
  let vals = Array.make n 0 in
  let mems =
    Array.map
      (fun nt -> if nt.asize > 0 then Array.make nt.asize 0 else [||])
      nets
  in
  let pq = { pbuf = Array.make 1024 0; plen = 0 } in
  (* the scheduling hooks are tied after the engine is built; until then
     the closures below see a no-op worklist *)
  let sdirty = ref true in
  let touch_ref : (int -> unit) ref = ref (fun _ -> ()) in
  let resolve (sc : scope) (name : string) (line : int) : int =
    match Hashtbl.find_opt index (sc.spfx ^ name) with
    | Some i -> i
    | None -> raise (Elab_error ("unknown net " ^ sc.spfx ^ name, line))
  in
  (* conversion into a context type: canonical in, canonical out *)
  let conv wr sr (x : cexpr) =
    let ev = x.ev in
    if x.cw = wr && x.cs = sr then ev else fun () -> canon wr sr (ev ())
  in
  let rec comp (sc : scope) (e : P.expr) : cexpr =
    match e with
    | P.Num (v, w, sg) ->
        if w = 0 then { cw = 32; cs = true; ev = (fun () -> v) }
        else
          let c = canon w sg v in
          { cw = w; cs = sg; ev = (fun () -> c) }
    | P.Id x -> (
        match Hashtbl.find_opt sc.senv x with
        | Some v -> { cw = 32; cs = true; ev = (fun () -> v) }
        | None ->
            let i = resolve sc x 0 in
            let nt = nets.(i) in
            if nt.asize > 0 then
              raise (Elab_error ("memory read without index: " ^ nt.nname, 0));
            { cw = nt.w; cs = nt.sg; ev = (fun () -> vals.(i)) })
    | P.Index (x, ie) ->
        let i = resolve sc x 0 in
        let nt = nets.(i) in
        let iev = (comp sc ie).ev in
        if nt.asize > 0 then begin
          let mem = mems.(i) and asize = nt.asize in
          {
            cw = nt.w;
            cs = nt.sg;
            ev =
              (fun () ->
                let j = iev () in
                if j < 0 || j >= asize then 0 else mem.(j));
          }
        end
        else begin
          let w = nt.w in
          {
            cw = 1;
            cs = false;
            ev =
              (fun () ->
                let b = iev () in
                if b < 0 || b >= w then 0
                else (mask_bits w vals.(i) lsr b) land 1);
          }
        end
    | P.Unop ("-", a) ->
        let ca = comp sc a in
        let wr = max ca.cw 32 and sr = ca.cs in
        let e = conv wr sr ca in
        { cw = wr; cs = sr; ev = (fun () -> canon wr sr (-e ())) }
    | P.Unop ("!", a) ->
        let e = (comp sc a).ev in
        { cw = 1; cs = false; ev = (fun () -> if e () = 0 then 1 else 0) }
    | P.Unop ("~", a) ->
        let ca = comp sc a in
        let wr = ca.cw and sr = ca.cs in
        let e = ca.ev in
        { cw = wr; cs = sr; ev = (fun () -> canon wr sr (lnot (e ()))) }
    | P.Unop (op, _) -> raise (Elab_error ("unknown operator " ^ op, 0))
    | P.Binop ((("&&" | "||") as op), a, b) ->
        let ea = (comp sc a).ev and eb = (comp sc b).ev in
        let ev =
          if op = "&&" then fun () ->
            if ea () <> 0 && eb () <> 0 then 1 else 0
          else fun () -> if ea () <> 0 || eb () <> 0 then 1 else 0
        in
        { cw = 1; cs = false; ev }
    | P.Binop ((("<" | "<=" | ">" | ">=" | "==" | "!=") as op), a, b) ->
        let ca = comp sc a and cb = comp sc b in
        let wr = max ca.cw cb.cw and sr = ca.cs && cb.cs in
        let ea = conv wr sr ca and eb = conv wr sr cb in
        let cmp : int -> int -> bool =
          match op with
          | "<" -> ( < )
          | "<=" -> ( <= )
          | ">" -> ( > )
          | ">=" -> ( >= )
          | "==" -> ( = )
          | _ -> ( <> )
        in
        {
          cw = 1;
          cs = false;
          ev = (fun () -> if cmp (ea ()) (eb ()) then 1 else 0);
        }
    | P.Binop ((("<<" | ">>" | ">>>") as op), a, b) ->
        let ca = comp sc a and cb = comp sc b in
        let wr = ca.cw and sr = ca.cs in
        let ea = ca.ev and eb = cb.ev in
        let ev =
          match op with
          | "<<" ->
              fun () ->
                let amt = eb () in
                if amt < 0 || amt >= 62 then 0
                else canon wr sr (mask_bits wr (ea ()) lsl amt)
          | ">>" ->
              fun () ->
                let amt = eb () in
                if amt < 0 || amt >= wr then 0
                else canon wr sr (mask_bits wr (ea ()) lsr amt)
          | _ ->
              (* >>> arithmetic only matters for signed operands *)
              fun () ->
                let amt = eb () in
                let amt = if amt < 0 then 62 else min amt 62 in
                if sr then canon wr sr (ea () asr amt)
                else if amt >= wr then 0
                else canon wr sr (mask_bits wr (ea ()) lsr amt)
        in
        { cw = wr; cs = sr; ev }
    | P.Binop (op, a, b) ->
        let ca = comp sc a and cb = comp sc b in
        let wr = max ca.cw cb.cw and sr = ca.cs && cb.cs in
        let ea = conv wr sr ca and eb = conv wr sr cb in
        let f : int -> int -> int =
          match op with
          | "+" -> ( + )
          | "-" -> ( - )
          | "*" -> ( * )
          | "/" -> fun x y -> if y = 0 then 0 else x / y
          | "%" -> fun x y -> if y = 0 then 0 else x mod y
          | "&" -> ( land )
          | "|" -> ( lor )
          | "^" -> ( lxor )
          | op -> raise (Elab_error ("unknown operator " ^ op, 0))
        in
        { cw = wr; cs = sr; ev = (fun () -> canon wr sr (f (ea ()) (eb ()))) }
    | P.Ternary (c, a, b) ->
        let ec = (comp sc c).ev in
        let ca = comp sc a and cb = comp sc b in
        let wr = max ca.cw cb.cw and sr = ca.cs && cb.cs in
        let ea = conv wr sr ca and eb = conv wr sr cb in
        { cw = wr; cs = sr; ev = (fun () -> if ec () <> 0 then ea () else eb ()) }
    | P.Concat es ->
        let parts = Array.of_list (List.map (comp sc) es) in
        let wr = Array.fold_left (fun acc c -> acc + c.cw) 0 parts in
        {
          cw = wr;
          cs = false;
          ev =
            (fun () ->
              let acc = ref 0 in
              Array.iter
                (fun c -> acc := (!acc lsl c.cw) lor mask_bits c.cw (c.ev ()))
                parts;
              !acc);
        }
    | P.Sysfun ("$unsigned", a) ->
        let ca = comp sc a in
        let ev = ca.ev and w = ca.cw in
        { cw = w; cs = false; ev = (fun () -> mask_bits w (ev ())) }
    | P.Sysfun ("$signed", a) ->
        let ca = comp sc a in
        let ev = ca.ev and w = ca.cw in
        { cw = w; cs = true; ev = (fun () -> canon w true (ev ())) }
    | P.Sysfun ("$clog2", a) ->
        let ev = (comp sc a).ev in
        { cw = 32; cs = true; ev = (fun () -> clog2 (ev ())) }
    | P.Sysfun (f, _) -> raise (Elab_error ("unknown system function " ^ f, 0))
  in
  (* destination helpers: blocking write-through and nonblocking schedule;
     every effective change seeds the dirty worklist *)
  let write_scalar i v =
    let nt = nets.(i) in
    let v = canon nt.w nt.sg v in
    if vals.(i) <> v then begin
      vals.(i) <- v;
      sdirty := true;
      !touch_ref i
    end
  in
  let write_elem i j v line =
    let nt = nets.(i) in
    if j < 0 || j >= nt.asize then
      raise
        (Sim_error
           (Printf.sprintf "line %d: %s[%d] out of range" line nt.nname j));
    let v = canon nt.w nt.sg v in
    if mems.(i).(j) <> v then begin
      mems.(i).(j) <- v;
      sdirty := true;
      !touch_ref i
    end
  in
  let write_bit i b v line =
    let nt = nets.(i) in
    if b < 0 || b >= nt.w then
      raise
        (Sim_error
           (Printf.sprintf "line %d: %s[%d] bit out of range" line nt.nname b));
    let cur = mask_bits nt.w vals.(i) in
    let cur = if v land 1 <> 0 then cur lor (1 lsl b) else cur land lnot (1 lsl b) in
    let v = canon nt.w nt.sg cur in
    if vals.(i) <> v then begin
      vals.(i) <- v;
      sdirty := true;
      !touch_ref i
    end
  in
  let compile_assign ~(blocking : bool) (dsc : scope) (lv : P.lval)
      (rhs : cexpr) : unit -> unit =
    let i = resolve dsc lv.P.base lv.P.lline in
    let nt = nets.(i) in
    let line = lv.P.lline in
    match (lv.P.index, nt.asize > 0) with
    | None, true ->
        raise (Elab_error ("memory write without index: " ^ nt.nname, line))
    | None, false ->
        let ev = rhs.ev in
        if blocking then fun () -> write_scalar i (ev ())
        else fun () -> pq_push pq 0 i 0 (ev ())
    | Some ie, true ->
        let iev = (comp dsc ie).ev and ev = rhs.ev in
        if blocking then fun () -> write_elem i (iev ()) (ev ()) line
        else fun () -> pq_push pq 1 i (iev ()) (ev ())
    | Some ie, false ->
        let iev = (comp dsc ie).ev and ev = rhs.ev in
        if blocking then fun () -> write_bit i (iev ()) (ev ()) line
        else fun () -> pq_push pq 2 i (iev ()) (ev ())
  in
  let rec comp_stmt (sc : scope) (s : P.stmt) : unit -> unit =
    match s with
    | P.Block ss ->
        let cs_ = Array.of_list (List.map (comp_stmt sc) ss) in
        fun () -> Array.iter (fun f -> f ()) cs_
    | P.If (c, th, el) -> (
        let ec = (comp sc c).ev in
        let ct = comp_stmt sc th in
        match el with
        | None -> fun () -> if ec () <> 0 then ct ()
        | Some e ->
            let ce = comp_stmt sc e in
            fun () -> if ec () <> 0 then ct () else ce ())
    | P.Case (scrut, arms, dflt) -> (
        let cscrut = comp sc scrut in
        let cdflt =
          match dflt with Some d -> comp_stmt sc d | None -> fun () -> ()
        in
        (* the emitted cases use constant labels: dispatch through a table *)
        let const_label l =
          try Some (ceval sc.senv l 0) with Elab_error _ -> None
        in
        let all_const =
          List.for_all (fun (ls, _) -> List.for_all (fun l -> const_label l <> None) ls) arms
        in
        if all_const then begin
          let wr =
            List.fold_left
              (fun acc (ls, _) ->
                List.fold_left
                  (fun acc l ->
                    match l with P.Num (_, w, _) when w > 0 -> max acc w | _ -> max acc 32)
                  acc ls)
              cscrut.cw arms
          in
          let sr =
            cscrut.cs
            && List.for_all
                 (fun (ls, _) ->
                   List.for_all
                     (fun l ->
                       match l with P.Num (_, w, sg) when w > 0 -> sg | _ -> true)
                     ls)
                 arms
          in
          (* first occurrence of a label wins, matching scan order *)
          let entries = ref [] and seen = Hashtbl.create 64 in
          List.iter
            (fun (ls, st) ->
              let f = comp_stmt sc st in
              List.iter
                (fun l ->
                  match const_label l with
                  | Some v ->
                      let k = canon wr sr v in
                      if not (Hashtbl.mem seen k) then begin
                        Hashtbl.replace seen k ();
                        entries := (k, f) :: !entries
                      end
                  | None -> ())
                ls)
            arms;
          let escr = conv wr sr cscrut in
          let tbl = Hashtbl.create 64 in
          List.iter (fun (k, f) -> Hashtbl.replace tbl k f) !entries;
          fun () ->
            match Hashtbl.find_opt tbl (escr ()) with
            | Some f -> f ()
            | None -> cdflt ()
        end
        else
          (* general fallback: linear scan with == semantics *)
          let carms =
            List.map
              (fun (ls, st) ->
                let lcs =
                  List.map
                    (fun l ->
                      let cl = comp sc l in
                      let wr = max cscrut.cw cl.cw and sr = cscrut.cs && cl.cs in
                      let es = conv wr sr cscrut and el = conv wr sr cl in
                      fun () -> es () = el ())
                    ls
                in
                (lcs, comp_stmt sc st))
              arms
          in
          fun () ->
            let rec go = function
              | [] -> cdflt ()
              | (lcs, f) :: rest ->
                  if List.exists (fun p -> p ()) lcs then f () else go rest
            in
            go carms)
    | P.For (ilv, ie, cond, slv, se, body) ->
        let init = compile_assign ~blocking:true sc ilv (comp sc ie) in
        let ec = (comp sc cond).ev in
        let stepf = compile_assign ~blocking:true sc slv (comp sc se) in
        let cbody = comp_stmt sc body in
        fun () ->
          init ();
          let iters = ref 0 in
          while ec () <> 0 do
            incr iters;
            if !iters > 1_000_000 then
              raise (Sim_error "for loop exceeded 1e6 iterations");
            cbody ();
            stepf ()
          done
    | P.Assign (lv, nonblocking, rhs) ->
        compile_assign ~blocking:(not nonblocking) sc lv (comp sc rhs)
  in
  let compile_cassign (fa : flat_assign) : unit -> bool =
    let rhs = comp fa.rsc fa.rhs in
    let i = resolve fa.dsc fa.dlv.P.base fa.aline in
    let nt = nets.(i) in
    match (fa.dlv.P.index, nt.asize > 0) with
    | None, false ->
        let ev = rhs.ev in
        let w = nt.w and sg = nt.sg in
        fun () ->
          let v = canon w sg (ev ()) in
          if vals.(i) <> v then begin
            vals.(i) <- v;
            true
          end
          else false
    | Some ie, true ->
        let iev = (comp fa.dsc ie).ev and ev = rhs.ev in
        let line = fa.aline in
        fun () ->
          let j = iev () in
          let nt = nets.(i) in
          if j < 0 || j >= nt.asize then
            raise
              (Sim_error
                 (Printf.sprintf "line %d: assign %s[%d] out of range" line
                    nt.nname j));
          let v = canon nt.w nt.sg (ev ()) in
          if mems.(i).(j) <> v then begin
            mems.(i).(j) <- v;
            true
          end
          else false
    | Some ie, false ->
        let iev = (comp fa.dsc ie).ev and ev = rhs.ev in
        let line = fa.aline in
        fun () ->
          let b = iev () and v = ev () in
          let before = vals.(i) in
          write_bit i b v line;
          vals.(i) <> before
    | None, true ->
        raise (Elab_error ("assign to memory without index", fa.aline))
  in
  let cass_arr = Array.of_list cassigns in
  let na = Array.length cass_arr in
  let closures = Array.map compile_cassign cass_arr in
  let proc_srcs = Array.of_list procs in
  let procs = Array.map (fun (sc, body) -> comp_stmt sc body) proc_srcs in
  let nprocs = Array.length procs in
  (* ---- levelization: read/write net sets, ranks, fanout lists ---- *)
  let expr_reads (sc : scope) (line : int) (acc : int list ref) =
    let rec go (e : P.expr) =
      match e with
      | P.Num _ -> ()
      | P.Id x ->
          if not (Hashtbl.mem sc.senv x) then acc := resolve sc x line :: !acc
      | P.Index (x, ie) ->
          go ie;
          acc := resolve sc x line :: !acc
      | P.Unop (_, a) | P.Sysfun (_, a) -> go a
      | P.Binop (_, a, b) ->
          go a;
          go b
      | P.Ternary (c, a, b) ->
          go c;
          go a;
          go b
      | P.Concat es -> List.iter go es
    in
    go
  in
  let reads_of (fa : flat_assign) : int list =
    let acc = ref [] in
    expr_reads fa.rsc fa.aline acc fa.rhs;
    (match fa.dlv.P.index with
    | Some ie -> expr_reads fa.dsc fa.aline acc ie
    | None -> ());
    List.sort_uniq compare !acc
  in
  (* every net an always body's behaviour depends on: rhs expressions,
     conditions, case scrutinees and labels, destination indices.  The
     body is a deterministic function of these, so an edge at which none
     of them changed since the proc's last run can skip it. *)
  let proc_reads ((sc, body) : scope * P.stmt) : int list =
    let acc = ref [] in
    let goe = expr_reads sc 0 acc in
    let golv (lv : P.lval) =
      match lv.P.index with Some ie -> goe ie | None -> ()
    in
    let rec gos (s : P.stmt) =
      match s with
      | P.Block ss -> List.iter gos ss
      | P.If (c, th, el) ->
          goe c;
          gos th;
          Option.iter gos el
      | P.Case (scrut, arms, dflt) ->
          goe scrut;
          List.iter
            (fun (ls, st) ->
              List.iter goe ls;
              gos st)
            arms;
          Option.iter gos dflt
      | P.For (ilv, ie, cond, slv, se, fbody) ->
          golv ilv;
          goe ie;
          goe cond;
          golv slv;
          goe se;
          gos fbody
      | P.Assign (lv, _, rhs) ->
          golv lv;
          goe rhs
    in
    gos body;
    List.sort_uniq compare !acc
  in
  let wnet =
    Array.map (fun fa -> resolve fa.dsc fa.dlv.P.base fa.aline) cass_arr
  in
  let readers = Array.make n [] in
  Array.iteri
    (fun a fa ->
      List.iter (fun r -> readers.(r) <- a :: readers.(r)) (reads_of fa))
    cass_arr;
  let preaders = Array.make n [] in
  Array.iteri
    (fun k pr ->
      List.iter (fun r -> preaders.(r) <- k :: preaders.(r)) (proc_reads pr))
    proc_srcs;
  let build_lev () : lev option =
    (* Kahn over the writer→reader multigraph; a leftover node means a
       combinational cycle (self-reads included) *)
    let indeg = Array.make na 0 in
    Array.iter
      (fun d -> List.iter (fun a -> indeg.(a) <- indeg.(a) + 1) readers.(d))
      wnet;
    let rank = Array.make na 0 in
    let q = Queue.create () in
    Array.iteri (fun a d -> if d = 0 then Queue.add a q) indeg;
    let seen = ref 0 in
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      incr seen;
      List.iter
        (fun v ->
          if rank.(u) + 1 > rank.(v) then rank.(v) <- rank.(u) + 1;
          indeg.(v) <- indeg.(v) - 1;
          if indeg.(v) = 0 then Queue.add v q)
        readers.(wnet.(u))
    done;
    if !seen < na then None
    else begin
      (* rank order, declaration order within a rank (ties do not affect
         results on a DAG, but keep the sweep deterministic) *)
      let order = Array.init na Fun.id in
      Array.sort
        (fun a b ->
          if rank.(a) <> rank.(b) then compare rank.(a) rank.(b)
          else compare a b)
        order;
      let pos = Array.make na 0 in
      Array.iteri (fun p a -> pos.(a) <- p) order;
      let lnfan =
        Array.map
          (fun rs ->
            Array.of_list
              (List.sort_uniq compare (List.map (fun a -> pos.(a)) rs)))
          readers
      in
      let lrun = Array.map (fun a -> closures.(a)) order in
      let lwnet = Array.map (fun a -> wnet.(a)) order in
      let pnfan =
        Array.map
          (fun ps -> Array.of_list (List.sort_uniq compare ps))
          preaders
      in
      Some
        {
          lrun;
          lwnet;
          lnfan;
          pnfan;
          lqueued = Array.make na true;
          pqueued = Array.make nprocs true;
          lnq = na;
          lqmin = 0;
          pnq = nprocs;
        }
    end
  in
  let eng, engv =
    match engine with
    | Fixpoint -> (Efix closures, Fixpoint)
    | Levelized -> (
        (* comb-loop fallback: fixpoint over the same closures;
           engine_of reports the engine actually running *)
        match build_lev () with
        | Some l -> (Elev l, Levelized)
        | None -> (Efix closures, Fixpoint))
  in
  let touch =
    match eng with
    | Efix _ -> fun _ -> ()
    | Elev lev ->
        fun i ->
          let fan = lev.lnfan.(i) in
          for k = 0 to Array.length fan - 1 do
            let p = fan.(k) in
            if not lev.lqueued.(p) then begin
              lev.lqueued.(p) <- true;
              lev.lnq <- lev.lnq + 1;
              if p < lev.lqmin then lev.lqmin <- p
            end
          done;
          let pf = lev.pnfan.(i) in
          for k = 0 to Array.length pf - 1 do
            let q = pf.(k) in
            if not lev.pqueued.(q) then begin
              lev.pqueued.(q) <- true;
              lev.pnq <- lev.pnq + 1
            end
          done
  in
  touch_ref := touch;
  { nets; index; vals; mems; eng; engv; procs; pq; touch; sdirty; tinputs;
    cyc = 0 }

(* ---- simulation --------------------------------------------------------- *)


let settle (t : t) =
  match t.eng with
  | Efix assigns ->
      if !(t.sdirty) then begin
        let changed = ref true and iters = ref 0 in
        while !changed do
          changed := false;
          Array.iter (fun f -> if f () then changed := true) assigns;
          incr iters;
          if !iters > 10_000 then
            raise (Sim_error "combinational loop: settle did not converge")
        done;
        t.sdirty := false
      end
  | Elev lev ->
      if lev.lnq > 0 then begin
        let np = Array.length lev.lrun in
        let p = ref lev.lqmin in
        while lev.lnq > 0 do
          if !p >= np then
            raise (Sim_error "levelized scheduler: worklist out of order");
          if lev.lqueued.(!p) then begin
            lev.lqueued.(!p) <- false;
            lev.lnq <- lev.lnq - 1;
            (* on change, mark the dest net's reader assigns (always
               ranked after the cursor) and reader procs *)
            if lev.lrun.(!p) () then t.touch lev.lwnet.(!p)
          end;
          incr p
        done;
        lev.lqmin <- max_int
      end;
      t.sdirty := false

let commit (t : t) =
  (* apply in program order, counting only effective writes so a
     quiescent commit leaves the worklist empty and the second settle
     of the cycle is skipped *)
  let q = t.pq in
  let b = q.pbuf in
  for k = 0 to q.plen - 1 do
    let off = k * 4 in
    let i = b.(off + 1) in
    match b.(off) with
    | 0 ->
        let v = b.(off + 3) in
        let nt = t.nets.(i) in
        let v = canon nt.w nt.sg v in
        if t.vals.(i) <> v then begin
          t.vals.(i) <- v;
          t.sdirty := true;
          t.touch i
        end
    | 1 ->
        let j = b.(off + 2) and v = b.(off + 3) in
        let nt = t.nets.(i) in
        if j < 0 || j >= nt.asize then
          raise (Sim_error (Printf.sprintf "%s[%d] out of range" nt.nname j));
        let v = canon nt.w nt.sg v in
        if t.mems.(i).(j) <> v then begin
          t.mems.(i).(j) <- v;
          t.sdirty := true;
          t.touch i
        end
    | _ ->
        let bi = b.(off + 2) and v = b.(off + 3) in
        let nt = t.nets.(i) in
        if bi >= 0 && bi < nt.w then begin
          let cur = mask_bits nt.w t.vals.(i) in
          let cur =
            if v land 1 <> 0 then cur lor (1 lsl bi)
            else cur land lnot (1 lsl bi)
          in
          let v = canon nt.w nt.sg cur in
          if t.vals.(i) <> v then begin
            t.vals.(i) <- v;
            t.sdirty := true;
            t.touch i
          end
        end
  done;
  q.plen <- 0

let step (t : t) =
  match t.eng with
  | Elev lev when lev.lnq = 0 && lev.pnq = 0 ->
      (* quiescent instance: nothing is dirty and no proc would fire —
         the whole edge is a no-op apart from the clock itself.  The
         nonblocking queue is necessarily empty here (it only fills
         while a proc body runs within [step]). *)
      t.cyc <- t.cyc + 1
  | _ ->
      settle t;
      (match t.eng with
      | Efix _ ->
          (* oracle semantics: every always body fires on every edge *)
          Array.iter (fun f -> f ()) t.procs
      | Elev lev ->
          (* activity-gated: run only the procs whose read nets changed
             since their last run, in declaration order.  The flag is
             cleared before the body so effective self-writes (blocking
             assigns the proc itself reads) conservatively requeue it. *)
          if lev.pnq > 0 then begin
            let procs = t.procs in
            for k = 0 to Array.length procs - 1 do
              if lev.pqueued.(k) then begin
                lev.pqueued.(k) <- false;
                lev.pnq <- lev.pnq - 1;
                procs.(k) ()
              end
            done
          end);
      commit t;
      settle t;
      t.cyc <- t.cyc + 1

let find (t : t) (name : string) : int =
  match Hashtbl.find_opt t.index name with
  | Some i -> i
  | None -> raise (Sim_error ("no such net: " ^ name))

(* ---- handles: resolve the name once, O(1) access per cycle -------------- *)

type handle = int

let handle (t : t) (name : string) : handle = find t name

let poke_h (t : t) (h : handle) (v : int) =
  let nt = t.nets.(h) in
  if nt.asize > 0 then raise (Sim_error ("poke of memory net " ^ nt.nname));
  let v = canon nt.w nt.sg v in
  if t.vals.(h) <> v then begin
    t.vals.(h) <- v;
    t.sdirty := true;
    t.touch h
  end

let peek_h (t : t) (h : handle) : int =
  if t.nets.(h).asize > 0 then
    raise (Sim_error ("peek of memory net " ^ t.nets.(h).nname));
  t.vals.(h)

let peek_elem_h (t : t) (h : handle) (j : int) : int =
  let nt = t.nets.(h) in
  if nt.asize = 0 then raise (Sim_error (nt.nname ^ " is not a memory"));
  if j < 0 || j >= nt.asize then
    raise (Sim_error (Printf.sprintf "%s[%d] out of range" nt.nname j));
  t.mems.(h).(j)

let poke (t : t) (name : string) (v : int) = poke_h t (find t name) v
let peek (t : t) (name : string) : int = peek_h t (find t name)

let peek_elem (t : t) (name : string) (j : int) : int =
  peek_elem_h t (find t name) j

let net_width (t : t) (name : string) : int = t.nets.(find t name).w
let has_net (t : t) (name : string) : bool = Hashtbl.mem t.index name
let cycles (t : t) : int = t.cyc
let engine_of (t : t) : engine = t.engv
let top_inputs (t : t) : string list = t.tinputs

let check (src : string) : (unit, string * int) result =
  match
    let design = P.parse src in
    List.iter (fun (m : P.modul) -> ignore (instantiate design m.P.mname)) design
  with
  | () -> Ok ()
  | exception (P.Parse_error (msg, line) | Elab_error (msg, line)) ->
      Error (msg, line)

let compare_state (a : t) (b : t) : string option =
  if Array.length a.nets <> Array.length b.nets then
    Some "net tables differ in size"
  else begin
    let r = ref None in
    (try
       for i = 0 to Array.length a.nets - 1 do
         if a.vals.(i) <> b.vals.(i) then begin
           r :=
             Some
               (Printf.sprintf "%s: %d vs %d" a.nets.(i).nname a.vals.(i)
                  b.vals.(i));
           raise Exit
         end;
         let ma = a.mems.(i) and mb = b.mems.(i) in
         for j = 0 to Array.length ma - 1 do
           if ma.(j) <> mb.(j) then begin
             r :=
               Some
                 (Printf.sprintf "%s[%d]: %d vs %d" a.nets.(i).nname j ma.(j)
                    mb.(j));
             raise Exit
           end
         done
       done
     with Exit -> ());
    !r
  end

(* ---- VCD dumping -------------------------------------------------------- *)

module Vcd = struct
  type dumper = {
    oc : out_channel;
    buf : Buffer.t; (* staged bytes, flushed once per timestep *)
    sim : t;
    scalars : int array; (* net ids with asize = 0 *)
    codes : string array; (* VCD short identifiers, indexed like scalars *)
    last : int array;
    mutable closed : bool;
  }

  let code_of k =
    (* printable-ascii identifier, base 94 starting at '!' *)
    let rec go k acc =
      let c = Char.chr (33 + (k mod 94)) in
      let acc = String.make 1 c ^ acc in
      if k < 94 then acc else go ((k / 94) - 1) acc
    in
    go k ""

  let sanitize name =
    String.map (fun c -> if c = '.' then '_' else c) name

  let emit_value buf (nt : net) v code =
    if nt.w = 1 then begin
      Buffer.add_char buf (if v land 1 = 1 then '1' else '0');
      Buffer.add_string buf code;
      Buffer.add_char buf '\n'
    end
    else begin
      let m = mask_bits nt.w v in
      Buffer.add_char buf 'b';
      for k = nt.w - 1 downto 0 do
        Buffer.add_char buf (if (m lsr k) land 1 = 1 then '1' else '0')
      done;
      Buffer.add_char buf ' ';
      Buffer.add_string buf code;
      Buffer.add_char buf '\n'
    end

  let flush (d : dumper) =
    Buffer.output_buffer d.oc d.buf;
    Buffer.clear d.buf

  let create (sim : t) (path : string) : dumper =
    let oc = open_out path in
    let buf = Buffer.create 65536 in
    let scalars =
      Array.of_list
        (List.filter
           (fun i -> sim.nets.(i).asize = 0)
           (List.init (Array.length sim.nets) Fun.id))
    in
    let codes = Array.mapi (fun k _ -> code_of k) scalars in
    Buffer.add_string buf "$timescale 1ns $end\n$scope module top $end\n";
    Array.iteri
      (fun k i ->
        let nt = sim.nets.(i) in
        Printf.bprintf buf "$var wire %d %s %s $end\n" nt.w codes.(k)
          (sanitize nt.nname))
      scalars;
    Buffer.add_string buf "$upscope $end\n$enddefinitions $end\n$dumpvars\n";
    let last = Array.make (Array.length scalars) 0 in
    Array.iteri
      (fun k i ->
        last.(k) <- sim.vals.(i);
        emit_value buf sim.nets.(i) sim.vals.(i) codes.(k))
      scalars;
    Buffer.add_string buf "$end\n";
    let d = { oc; buf; sim; scalars; codes; last; closed = false } in
    flush d;
    d

  let sample (d : dumper) =
    Buffer.add_char d.buf '#';
    Buffer.add_string d.buf (string_of_int d.sim.cyc);
    Buffer.add_char d.buf '\n';
    Array.iteri
      (fun k i ->
        let v = d.sim.vals.(i) in
        if v <> d.last.(k) then begin
          d.last.(k) <- v;
          emit_value d.buf d.sim.nets.(i) v d.codes.(k)
        end)
      d.scalars;
    flush d

  let close (d : dumper) =
    if not d.closed then begin
      d.closed <- true;
      flush d;
      close_out d.oc
    end
end
