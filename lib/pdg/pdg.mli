(** Program Dependence Graph (thesis §5.2, second custom pass).

    Nodes are a function's instructions plus one node per block
    terminator; an edge means the tail must execute before the head.
    Data edges follow SSA use-def (including phi incomings and terminator
    operands); memory edges order may-aliasing operations, expanded
    through per-function effect summaries at call sites; control edges are
    classic Ferrante-Ottenstein-Warren dependence via post-dominance
    frontiers; [Pin] edges are artificial two-way edges that fuse nodes
    into one SCC (the observable print trace, and call-involved memory
    conflicts that the token scheme cannot synchronise). *)

open Twill_ir.Ir

type ekind = Data | Mem | Ctrl | Pin

type t = {
  func : func;
  ninsts : int;
  nnodes : int;  (** ninsts + one terminator node per block *)
  mutable succs : (int * ekind) list array;
  mutable preds : (int * ekind) list array;
}

val term_node : t -> int -> int
(** PDG node of block [bid]'s terminator. *)

val is_term_node : t -> int -> bool
val term_block : t -> int -> int

val add_edge : t -> from:int -> to_:int -> ekind -> unit
val pin_together : t -> int -> int -> unit

val build : Effects.t -> func -> t
(** The PDG of [f], its memory edges from the points-to analysis the
    summaries carry. *)

val live_nodes : t -> int list
(** Instructions present in blocks plus all terminator nodes. *)

val node_name : t -> int -> string
val pp : Format.formatter -> t -> unit
