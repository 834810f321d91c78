(** Points-to analysis, memory disambiguation and array banking.

    One flow-insensitive interprocedural points-to analysis ({!build})
    serves every consumer of memory dependences: the PDG's memory edges
    and effect summaries ({!base_of}, {!may_alias}, {!loads_read_only}),
    and the banking dependence oracle ({!addr_info}, {!independent}).
    Mini-C keeps pointer structure trivial by construction — addresses
    flow only through globals, allocas, geps and array arguments — so
    the call-site fixpoint over the acyclic call graph gives precise
    per-object disambiguation, and it runs to convergence.

    The banking oracle proves two memory accesses can never touch the
    same word (base-object separation plus affine gep-offset residue
    classes, conservative everywhere else).  On top of it, {!plan}
    computes a *virtual* banking of the flat memory space: a bijection
    [addr <-> (bank, local)] plus a static per-instruction bank table.
    Nothing in the IR or layout is mutated — consumers (per-bank
    scheduler chains, rtsim bus arbitration, RTL memory decode) apply
    the map themselves, so program semantics are banking-invariant by
    construction and the bank count keys only simulation-level caches. *)

open Ir

(** Canonical memory objects. *)
type base = Bglobal of string | Balloca of string * int  (** func, inst id *)

type baseset = Known of base list | Unknown

val union : baseset -> baseset -> baseset

val overlap : baseset -> baseset -> bool
(** May the two sets share an object? *)

(** The residue class [{ aconst + agcd * k | k in Z }]; [agcd = 0] means
    exactly [aconst], [agcd = 1] any value. *)
type affine = { aconst : int32; agcd : int }

type t
(** Flow-insensitive interprocedural analysis of one module. *)

val build : modul -> t

val base_of : t -> func -> operand -> baseset
(** Possible objects an address operand points into:
    [fst (addr_info t f o)]. *)

val addr_info : t -> func -> operand -> baseset * affine
(** Objects an address operand may point into, and its affine offset
    relative to the object base. *)

val is_read_only : t -> string -> bool
(** Is the global never written anywhere in the module? *)

val loads_read_only : t -> func -> operand -> bool
(** Does a load from this address only ever read never-written globals? *)

val may_alias : t -> func -> operand -> operand -> bool
(** The PDG's test: may the two addresses of [f] refer to the same word?
    Distinct objects never alias; same-object accesses disambiguate by
    constant offsets from a shared gep root.  Neither this nor
    {!independent}'s affine test subsumes the other: the root test separates
    [p[i]] from [p[i+1]], the affine test [a[2i]] from [a[2i+1]]. *)

val independent : t -> func -> inst -> func -> inst -> bool
(** Can the two accesses (Load/Store) never touch the same word?  True
    only on proof; false for any pair with a non-access. *)

(* --- banking ------------------------------------------------------------ *)

type policy = Pblock | Pcyclic

type region = {
  r_base : int;  (** first word of the region *)
  r_words : int;
  r_policy : policy;
  r_bank : int;  (** bank for [Pblock]; ignored for [Pcyclic] *)
  r_local : int array;  (** per-bank local base of the region's words *)
}

type plan = {
  pn : int;  (** bank count (>= 1) *)
  pt : t;
  playout : Layout.t;
  regions : region list;  (** in address order, covering [0, words_used) *)
  bank_of_word : int array;
  local_of_word : int array;
  bank_words : int array;  (** in-image words per bank (RTL sizing) *)
  tail_local : int array;
}

val plan : t -> Layout.t -> banks:int -> plan
(** Partition the address space across [banks] banks.  Per object the
    policy is cyclic (word [x] of the object to bank [x mod n]) when the
    object's accesses are all strided in multiples of [n] with at least
    two distinct residues, block (whole object into one bank, greedily
    balancing static access weight) otherwise. *)

val plan_of_module : modul -> banks:int -> plan
(** [plan (build m) (Layout.build m) ~banks]: the one banking plan of
    [m] that rtsim, the area model, the RTL emitter and cosim share. *)

val bank_of_addr : plan -> int32 -> int
val local_of_addr : plan -> int32 -> int
(** Total over the whole address space and jointly injective:
    [addr <-> (bank_of_addr a, local_of_addr a)] is a bijection. *)

val bank_table : plan -> func -> int option array
(** The static bank of every instruction of [f], indexed by id: [Some b]
    iff every object the access's address may point to, combined with
    the affine offset, lands in bank [b] for every dynamic index.
    [None] for non-accesses and for accesses that take the all-banks
    conservative path. *)
