(* Static memory layout.

   Twill-compatible programs have no recursion, so — exactly like LegUp's
   pure-hardware flow — every global and every function-local array can be
   assigned a fixed address in the unified word-addressed memory space. *)

open Ir

type t = {
  global_addr : (string, int32) Hashtbl.t;
  alloca_addr : (string * int, int32) Hashtbl.t; (* (func, inst id) *)
  words_used : int;
}

let base_addr = 16 (* low words reserved so that 0 is never a valid address *)

let build (m : modul) =
  let global_addr = Hashtbl.create 64 in
  let alloca_addr = Hashtbl.create 64 in
  let next = ref base_addr in
  List.iter
    (fun g ->
      Hashtbl.replace global_addr g.gname (Int32.of_int !next);
      next := !next + g.size)
    m.globals;
  List.iter
    (fun f ->
      Vec.iter
        (fun i ->
          match i.kind with
          | Alloca n when i.block >= 0 ->
              Hashtbl.replace alloca_addr (f.name, i.id) (Int32.of_int !next);
              next := !next + n
          | _ -> ())
        f.insts)
    m.funcs;
  { global_addr; alloca_addr; words_used = !next }

let global_address t name =
  match Hashtbl.find_opt t.global_addr name with
  | Some a -> a
  | None -> failwith ("Layout.global_address: unknown global " ^ name)

let alloca_address t fname id =
  match Hashtbl.find_opt t.alloca_addr (fname, id) with
  | Some a -> a
  | None -> failwith "Layout.alloca_address: unknown alloca"

let init_memory t (m : modul) (mem : int array) =
  List.iter
    (fun g ->
      let base = Int32.to_int (global_address t g.gname) in
      Array.iteri (fun i v -> mem.(base + i) <- Int32.to_int v) g.init)
    m.globals
