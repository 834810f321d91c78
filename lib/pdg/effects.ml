(* Per-function side-effect summaries (memory regions read/written, plus
   whether the function prints), computed bottom-up over the acyclic call
   graph and expressed in canonical object terms via the interprocedural
   points-to results.  Used to build call-site dependence edges without
   collapsing every call into a clobber-everything barrier. *)

open Twill_ir.Ir
module Memdep = Twill_ir.Memdep

type summary = {
  reads : Memdep.baseset;
  writes : Memdep.baseset;
  prints : bool;
}

type t = { alias : Memdep.t; table : (string, summary) Hashtbl.t }

let empty_summary =
  { reads = Memdep.Known []; writes = Memdep.Known []; prints = false }

let build (alias : Memdep.t) (m : modul) : t =
  let t = { alias; table = Hashtbl.create 16 } in
  (* A function's own allocas are invisible to its callers (addresses never
     flow upward in mini-C), and calls cannot observe each other's scratch
     because locals are zero-initialised at their declaration.  Dropping
     them keeps independent calls decoupled; the DSWP stage serialises
     *concurrent* access to the shared static frames with semaphores. *)
  let drop_private fname = function
    | Memdep.Unknown -> Memdep.Unknown
    | Memdep.Known bs ->
        Memdep.Known
          (List.filter
             (function
               | Memdep.Balloca (owner, _) -> owner <> fname
               | Memdep.Bglobal _ -> true)
             bs)
  in
  let rec summary_of (name : string) : summary =
    match Hashtbl.find_opt t.table name with
    | Some s -> s
    | None ->
        let f = find_func m name in
        let s = ref empty_summary in
        iter_insts f (fun i ->
            match i.kind with
            | Load a ->
                if not (Memdep.loads_read_only alias f a) then
                  s :=
                    {
                      !s with
                      reads =
                        Memdep.union !s.reads
                          (drop_private f.name (Memdep.base_of alias f a));
                    }
            | Store (a, _) ->
                s :=
                  {
                    !s with
                    writes =
                      Memdep.union !s.writes
                        (drop_private f.name (Memdep.base_of alias f a));
                  }
            | Print _ -> s := { !s with prints = true }
            | Call (callee, _) ->
                let cs = summary_of callee in
                s :=
                  {
                    reads = Memdep.union !s.reads cs.reads;
                    writes = Memdep.union !s.writes cs.writes;
                    prints = !s.prints || cs.prints;
                  }
            | _ -> ());
        Hashtbl.replace t.table name !s;
        !s
  in
  List.iter (fun f -> ignore (summary_of f.name)) m.funcs;
  t

let summary t name =
  match Hashtbl.find_opt t.table name with
  | Some s -> s
  | None -> empty_summary
