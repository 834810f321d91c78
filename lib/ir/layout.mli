(** Static memory layout.

    Twill-compatible programs have no recursion, so — exactly like
    LegUp's pure-hardware flow — every global and every function-local
    array receives a fixed address in the unified word-addressed memory
    space.  The interpreter, the cycle simulator, the C backend and the
    Verilog backend all share these addresses. *)

open Ir

type t = {
  global_addr : (string, int32) Hashtbl.t;
  alloca_addr : (string * int, int32) Hashtbl.t;  (** (function, inst id) *)
  words_used : int;
}

val base_addr : int
(** Low words are reserved so address 0 is never valid. *)

val build : modul -> t

val global_address : t -> string -> int32
(** @raise Failure on unknown globals. *)

val alloca_address : t -> string -> int -> int32

val init_memory : t -> modul -> int array -> unit
(** Writes every global's initialiser into a memory image.  An image word
    is the sign extension of the 32-bit value as a native [int] (the
    decoded interpreter's representation, see {!Interp}). *)
