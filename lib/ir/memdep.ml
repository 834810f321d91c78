(* Points-to analysis, memory disambiguation and array banking.

   One flow-insensitive interprocedural points-to analysis serves every
   consumer of memory dependences: the PDG's memory edges and the
   per-function effect summaries (lib/pdg), and the banking below.
   Mini-C addresses flow only through globals, allocas, geps and array
   arguments (no casts, no address-of on scalars, no pointer phis from
   the front end), so a simple points-to computation over the acyclic
   call graph gives precise per-object disambiguation, the
   "basicaa"-level precision the thesis relies on.

   Twill's hardware threads serialize every load/store through the one
   module-shared memory port, so the scheduler chains all memory traffic
   into a single total order.  This module proves independence between
   accesses so that order can be split per bank:

   - base-object separation from the points-to sets;
   - affine offset analysis: a gep chain's offset relative to its root
     is tracked as the residue class [c + g*Z] (g = 0 means exactly c);
     two accesses to the same object are independent when their residue
     classes are disjoint.

   Everything degrades conservatively: an address the lattice cannot
   express joins to [0 + 1*Z] (any offset), an operand whose object is
   unknown joins to Unknown, and [independent] answers false whenever
   either side is imprecise.

   On top of the oracle sits a *virtual* banking plan: a bijection
   [addr <-> (bank, local)] computed from the module and its layout.  No
   IR or layout is mutated — consumers (scheduler chains, rtsim bus
   arbitration, RTL memory decode) apply the map themselves.  That keeps
   program semantics banking-invariant by construction and lets the
   bank count key only simulation-level caches. *)

open Ir

(* --- canonical memory objects ------------------------------------------- *)

type base = Bglobal of string | Balloca of string * int (* func, inst id *)

type baseset =
  | Known of base list (* may point to any of these objects *)
  | Unknown (* may point anywhere *)

let union a b =
  match (a, b) with
  | Unknown, _ | _, Unknown -> Unknown
  | Known xs, Known ys -> Known (List.sort_uniq compare (xs @ ys))

(* May the two sets share an object? *)
let overlap a b =
  match (a, b) with
  | Unknown, _ | _, Unknown -> true
  | Known xs, Known ys -> List.exists (fun x -> List.mem x ys) xs

(* --- affine residue classes --------------------------------------------- *)

(* The value set { aconst + agcd * k | k in Z }; agcd = 0 means exactly
   [aconst], agcd = 1 means any value.  This is the coarsest lattice
   that still separates strided accesses (a[N*i] vs a[N*i+1]). *)
type affine = { aconst : int32; agcd : int }

let aff_const c = { aconst = c; agcd = 0 }
let aff_top = { aconst = 0l; agcd = 1 }

let rec gcd a b = if b = 0 then a else gcd b (a mod b)
let gcd a b = gcd (abs a) (abs b)

let aff_add a b =
  { aconst = Int32.add a.aconst b.aconst; agcd = gcd a.agcd b.agcd }

let aff_sub a b =
  { aconst = Int32.sub a.aconst b.aconst; agcd = gcd a.agcd b.agcd }

let aff_scale k a =
  if k = 0l then aff_const 0l
  else
    {
      aconst = Int32.mul a.aconst k;
      agcd = abs (a.agcd * Int32.to_int k) land max_int;
    }

(* Conservative union: the smallest residue class containing both. *)
let aff_union a b =
  let d = Int32.to_int (Int32.sub a.aconst b.aconst) in
  { aconst = a.aconst; agcd = gcd (gcd a.agcd b.agcd) d }

(* May the two residue classes share an element? *)
let aff_collide a b =
  let g = gcd a.agcd b.agcd in
  if g = 0 then a.aconst = b.aconst
  else Int32.to_int (Int32.sub a.aconst b.aconst) mod g = 0

(* --- the analysis ------------------------------------------------------- *)

type t = {
  m : modul;
  (* function name -> per-argument (points-to, offset vs object base);
     None until a call site reaches the argument *)
  argpt : (string, (baseset * affine) option array) Hashtbl.t;
  (* globals that are never written anywhere in the module *)
  read_only : (string, unit) Hashtbl.t;
}

(* An argument no call site reaches points nowhere: its function never
   runs with it. *)
let arg_info t (f : func) i =
  match Hashtbl.find_opt t.argpt f.name with
  | Some sets when i < Array.length sets ->
      Option.value sets.(i) ~default:(Known [], aff_const 0l)
  | _ -> (Unknown, aff_top)

(* Affine value of an operand used as an integer (gep index).  Walks the
   defining chain depth-limited, with a visiting set so phi cycles join
   to top instead of looping. *)
let affine_of (f : func) (o : operand) : affine =
  let visiting = Hashtbl.create 8 in
  let rec go depth o =
    if depth > 64 then aff_top
    else
      match o with
      | Cst c -> aff_const c
      | Argv _ | Glob _ -> aff_top
      | Reg r ->
          if Hashtbl.mem visiting r then aff_top
          else begin
            Hashtbl.add visiting r ();
            let a =
              match (inst f r).kind with
              | Binop (Add, x, y) -> aff_add (go (depth + 1) x) (go (depth + 1) y)
              | Binop (Sub, x, y) -> aff_sub (go (depth + 1) x) (go (depth + 1) y)
              | Binop (Mul, x, Cst k) | Binop (Mul, Cst k, x) ->
                  aff_scale k (go (depth + 1) x)
              | Binop (Shl, x, Cst k) when Int32.to_int k land 31 < 30 ->
                  aff_scale
                    (Int32.shift_left 1l (Int32.to_int k land 31))
                    (go (depth + 1) x)
              | Phi incoming ->
                  List.fold_left
                    (fun acc (_, v) -> aff_union acc (go (depth + 1) v))
                    (match incoming with
                    | (_, v) :: _ -> go (depth + 1) v
                    | [] -> aff_top)
                    (match incoming with _ :: rest -> rest | [] -> [])
              | Select (_, x, y) ->
                  aff_union (go (depth + 1) x) (go (depth + 1) y)
              | Gep (x, y) -> aff_add (go (depth + 1) x) (go (depth + 1) y)
              | _ -> aff_top
            in
            Hashtbl.remove visiting r;
            a
          end
  in
  go 0 o

(* Base objects of an address operand inside [f]: [fst (addr_info …)]
   without the affine walk, for the PDG's pairwise queries. *)
let rec base_of t (f : func) (o : operand) : baseset =
  match o with
  | Glob g -> Known [ Bglobal g ]
  | Cst _ -> Known [] (* a literal address never arises from the front end *)
  | Argv i -> fst (arg_info t f i)
  | Reg r -> (
      match (inst f r).kind with
      | Alloca _ -> Known [ Balloca (f.name, r) ]
      | Gep (b, _) -> base_of t f b
      | _ -> Unknown)

(* Base objects and affine offset (relative to each object's base) of an
   address operand inside [f]. *)
let rec addr_info t (f : func) (o : operand) : baseset * affine =
  match o with
  | Glob g -> (Known [ Bglobal g ], aff_const 0l)
  | Cst _ -> (Known [], aff_top) (* never front-end-generated *)
  | Argv i -> arg_info t f i
  | Reg r -> (
      match (inst f r).kind with
      | Alloca _ -> (Known [ Balloca (f.name, r) ], aff_const 0l)
      | Gep (b, idx) ->
          let bs, off = addr_info t f b in
          (bs, aff_add off (affine_of f idx))
      | _ -> (Unknown, aff_top))

(* Fixpoint over call sites: each argument's (points-to, offset) is the
   join over every call site of the actual's address info.  Joins start
   from None (no call site yet) and only grow, and base sets and residue
   classes both have finite height, so the loop converges; a round cap
   would stop a deep call chain with its deepest arguments unreached. *)
let build (m : modul) : t =
  let t = { m; argpt = Hashtbl.create 16; read_only = Hashtbl.create 16 } in
  List.iter
    (fun f -> Hashtbl.replace t.argpt f.name (Array.make f.nparams None))
    m.funcs;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun f ->
        iter_insts f (fun i ->
            match i.kind with
            | Call (callee, args) -> (
                match Hashtbl.find_opt t.argpt callee with
                | None -> ()
                | Some sets ->
                    Array.iteri
                      (fun k a ->
                        if k < Array.length sets then begin
                          let bs, off = addr_info t f a in
                          let s =
                            match sets.(k) with
                            | None -> Some (bs, off)
                            | Some (obs, ooff) ->
                                Some (union obs bs, aff_union ooff off)
                          in
                          if s <> sets.(k) then begin
                            sets.(k) <- s;
                            changed := true
                          end
                        end)
                      args)
            | _ -> ()))
      m.funcs
  done;
  (* read-only globals: no store's base set may include them *)
  let written = Hashtbl.create 16 in
  let clobber_all = ref false in
  List.iter
    (fun f ->
      iter_insts f (fun i ->
          match i.kind with
          | Store (addr, _) -> (
              match base_of t f addr with
              | Unknown -> clobber_all := true
              | Known bs ->
                  List.iter
                    (function
                      | Bglobal g -> Hashtbl.replace written g ()
                      | Balloca _ -> ())
                    bs)
          | _ -> ()))
    m.funcs;
  if not !clobber_all then
    List.iter
      (fun g ->
        if not (Hashtbl.mem written g.gname) then
          Hashtbl.replace t.read_only g.gname ())
      m.globals;
  t

let is_read_only t g = Hashtbl.mem t.read_only g

(* Is a load from address [a] known to read only never-written globals? *)
let loads_read_only t (f : func) (a : operand) : bool =
  match base_of t f a with
  | Known bs ->
      bs <> []
      && List.for_all
           (function Bglobal g -> is_read_only t g | Balloca _ -> false)
           bs
  | Unknown -> false

(* --- the PDG's pairwise test -------------------------------------------- *)

(* Constant byte-offset of an address relative to its gep chain root, when
   every step is a constant. *)
let rec const_offset (f : func) (o : operand) : (operand * int32) option =
  match o with
  | Reg r -> (
      match (inst f r).kind with
      | Gep (b, Cst k) -> (
          match const_offset f b with
          | Some (root, off) -> Some (root, Int32.add off k)
          | None -> Some (Reg r, 0l))
      | _ -> Some (o, 0l))
  | _ -> Some (o, 0l)

(* May the two addresses refer to the same word?  Overlapping objects,
   then constant-offset disambiguation from a shared root. *)
let may_alias t (f : func) (a : operand) (b : operand) : bool =
  overlap (base_of t f a) (base_of t f b)
  &&
  match (const_offset f a, const_offset f b) with
  | Some (ra, oa), Some (rb, ob) when ra = rb -> oa = ob
  | _ -> true

(* --- the independence oracle -------------------------------------------- *)

let address_of_access (i : inst) : operand option =
  match i.kind with Load a | Store (a, _) -> Some a | _ -> None

(* May accesses [ia] (in [fa]) and [ib] (in [fb]) touch the same word?
   Answers false only on proof: disjoint object sets, or a shared object
   with provably disjoint residue classes. *)
let may_same_address t (fa : func) (ia : inst) (fb : func) (ib : inst) : bool =
  match (address_of_access ia, address_of_access ib) with
  | Some a, Some b -> (
      let ba, offa = addr_info t fa a in
      let bb, offb = addr_info t fb b in
      overlap ba bb
      && match (ba, bb) with
         | Known _, Known _ -> aff_collide offa offb
         | _ -> true)
  | _ -> false

let independent t fa ia fb ib = not (may_same_address t fa ia fb ib)

(* --- the banking plan --------------------------------------------------- *)

type policy = Pblock | Pcyclic

type region = {
  r_base : int; (* first word of the region *)
  r_words : int;
  r_policy : policy;
  r_bank : int; (* bank for Pblock; ignored for Pcyclic *)
  r_local : int array; (* per-bank local base of the region's words *)
}

type plan = {
  pn : int;
  pt : t;
  playout : Layout.t;
  regions : region list;
  bank_of_word : int array; (* indexed by word address, [0, words_used) *)
  local_of_word : int array;
  bank_words : int array; (* in-image words per bank (RTL memory sizing) *)
  tail_local : int array; (* per-bank local base for >= words_used *)
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* Object table in layout order: (base, address, size, accesses).
   Accesses record every affine offset any load/store may apply to the
   object; objects only reached through Unknown addresses get no list
   entries (those instructions take the all-banks path regardless). *)
let objects_of t (layout : Layout.t) =
  let accesses : (base, affine list ref) Hashtbl.t = Hashtbl.create 64 in
  let touch b off =
    let l =
      match Hashtbl.find_opt accesses b with
      | Some l -> l
      | None ->
          let l = ref [] in
          Hashtbl.add accesses b l;
          l
    in
    l := off :: !l
  in
  List.iter
    (fun f ->
      iter_insts f (fun i ->
          match address_of_access i with
          | None -> ()
          | Some a -> (
              match addr_info t f a with
              | Known bs, off -> List.iter (fun b -> touch b off) bs
              | Unknown, _ -> ())))
    t.m.funcs;
  let objs = ref [] in
  List.iter
    (fun (g : global) ->
      let addr = Int32.to_int (Layout.global_address layout g.gname) in
      objs := (Bglobal g.gname, addr, g.size) :: !objs)
    t.m.globals;
  List.iter
    (fun f ->
      iter_insts f (fun i ->
          match i.kind with
          | Alloca n when i.block >= 0 ->
              let addr =
                Int32.to_int (Layout.alloca_address layout f.name i.id)
              in
              objs := (Balloca (f.name, i.id), addr, n) :: !objs
          | _ -> ()))
    t.m.funcs;
  let objs = List.sort (fun (_, a, _) (_, b, _) -> compare a b) !objs in
  List.map
    (fun (b, addr, size) ->
      let accs = match Hashtbl.find_opt accesses b with
        | Some l -> !l
        | None -> []
      in
      (b, addr, size, accs))
    objs

let plan (t : t) (layout : Layout.t) ~(banks : int) : plan =
  let n = max 1 banks in
  let w = layout.words_used in
  let objs = objects_of t layout in
  (* Per-object policy.  Cyclic pays off when the object's accesses are
     all strided in multiples of N with at least two distinct residues
     (the unrolled a[N*i+k] pattern): every access then has a static
     bank and same-iteration accesses spread across banks.  Anything
     else blocks whole into one bank, chosen greedily to balance the
     static access weight across banks. *)
  let cyclic_ok size accs =
    n > 1 && is_pow2 n && size >= n && accs <> []
    && List.for_all (fun a -> a.agcd mod n = 0) accs
    &&
    let residue a = (Int32.to_int a.aconst mod n + n) mod n in
    List.length (List.sort_uniq compare (List.map residue accs)) > 1
  in
  let weight accs = 1 + List.length accs in
  let load = Array.make n 0 in
  (* Greedy block assignment in decreasing weight order so the heaviest
     objects spread first; ties and the final region list stay in layout
     order for deterministic output. *)
  let decisions : (base, policy * int) Hashtbl.t = Hashtbl.create 64 in
  let by_weight =
    List.stable_sort
      (fun (_, _, _, a) (_, _, _, b) -> compare (weight b) (weight a))
      objs
  in
  List.iter
    (fun (b, _, size, accs) ->
      if cyclic_ok size accs then begin
        Hashtbl.replace decisions b (Pcyclic, 0);
        let per = weight accs / n in
        for k = 0 to n - 1 do
          load.(k) <- load.(k) + per
        done
      end
      else begin
        let best = ref 0 in
        for k = 1 to n - 1 do
          if load.(k) < load.(!best) then best := k
        done;
        Hashtbl.replace decisions b (Pblock, !best);
        load.(!best) <- load.(!best) + weight accs
      end)
    by_weight;
  (* Regions in layout order: the reserved low words, one region per
     object (adjacent same-bank block regions merged), and any slack
     between/after objects blocked into bank 0. *)
  let cnt = Array.make n 0 in
  let mk_block bank base words =
    let r_local = Array.make n 0 in
    r_local.(bank) <- cnt.(bank);
    cnt.(bank) <- cnt.(bank) + words;
    { r_base = base; r_words = words; r_policy = Pblock; r_bank = bank; r_local }
  in
  let mk_cyclic base words =
    let r_local = Array.make n 0 in
    for k = 0 to n - 1 do
      r_local.(k) <- cnt.(k);
      cnt.(k) <- cnt.(k) + ((words + n - 1 - k) / n)
    done;
    { r_base = base; r_words = words; r_policy = Pcyclic; r_bank = 0; r_local }
  in
  let regions = ref [] in
  let push r = if r.r_words > 0 then regions := r :: !regions in
  let pos = ref 0 in
  let advance_to base =
    if base > !pos then push (mk_block 0 !pos (base - !pos));
    pos := max !pos base
  in
  advance_to (min Layout.base_addr w);
  List.iter
    (fun (b, addr, size, _) ->
      if size > 0 && addr >= !pos then begin
        advance_to addr;
        (match Hashtbl.find_opt decisions b with
        | Some (Pcyclic, _) -> push (mk_cyclic addr size)
        | Some (Pblock, bank) -> push (mk_block bank addr size)
        | None -> push (mk_block 0 addr size));
        pos := addr + size
      end)
    objs;
  advance_to w;
  (* Merge adjacent block regions with the same bank (cheaper decode). *)
  let regions =
    List.fold_left
      (fun acc r ->
        match acc with
        | prev :: rest
          when prev.r_policy = Pblock && r.r_policy = Pblock
               && prev.r_bank = r.r_bank
               && prev.r_base + prev.r_words = r.r_base ->
            { prev with r_words = prev.r_words + r.r_words } :: rest
        | _ -> r :: acc)
      []
      (List.rev !regions)
  in
  let regions = List.rev regions in
  let bank_of_word = Array.make w 0 in
  let local_of_word = Array.make w 0 in
  List.iter
    (fun r ->
      for x = 0 to r.r_words - 1 do
        match r.r_policy with
        | Pblock ->
            bank_of_word.(r.r_base + x) <- r.r_bank;
            local_of_word.(r.r_base + x) <- r.r_local.(r.r_bank) + x
        | Pcyclic ->
            let b = x mod n in
            bank_of_word.(r.r_base + x) <- b;
            local_of_word.(r.r_base + x) <- r.r_local.(b) + (x / n)
      done)
    regions;
  {
    pn = n;
    pt = t;
    playout = layout;
    regions;
    bank_of_word;
    local_of_word;
    bank_words = Array.copy cnt;
    tail_local = Array.copy cnt;
  }

(* Total on the whole address space: in-image words through the region
   map, anything beyond cyclically.  [bank_of_addr]/[local_of_addr] form
   a bijection addr <-> (bank, local): per bank, in-image locals occupy
   [0, bank_words) and tail locals continue strictly increasing above. *)
let bank_of_addr p (a : int32) : int =
  let x = Int32.to_int a in
  if x >= 0 && x < Array.length p.bank_of_word then p.bank_of_word.(x)
  else if p.pn = 1 then 0
  else ((x mod p.pn) + p.pn) mod p.pn

let local_of_addr p (a : int32) : int =
  let x = Int32.to_int a in
  if x >= 0 && x < Array.length p.local_of_word then p.local_of_word.(x)
  else
    let w = Array.length p.local_of_word in
    let b = bank_of_addr p a in
    p.tail_local.(b) + ((x - w) / p.pn)

let plan_of_module (m : modul) ~(banks : int) : plan =
  plan (build m) (Layout.build m) ~banks

(* Static bank of an access: Some b iff every object the address may
   point to, combined with the access's affine offset, lands in bank [b]
   no matter the dynamic index.  None takes the all-banks conservative
   path in every consumer. *)
let region_of_base p (b : base) : region option =
  let addr =
    match b with
    | Bglobal g -> (
        match Layout.global_address p.playout g with
        | a -> Some (Int32.to_int a)
        | exception _ -> None)
    | Balloca (f, id) -> (
        match Layout.alloca_address p.playout f id with
        | a -> Some (Int32.to_int a)
        | exception _ -> None)
  in
  match addr with
  | None -> None
  | Some a ->
      List.find_opt
        (fun r -> a >= r.r_base && a < r.r_base + r.r_words)
        p.regions

let bank_of_inst p (f : func) (i : inst) : int option =
  if p.pn = 1 then Some 0
  else
    match address_of_access i with
    | None -> None
    | Some a -> (
        let bs, off = addr_info p.pt f a in
        match bs with
        | Unknown -> None
        | Known [] ->
            if off.agcd = 0 then Some (bank_of_addr p off.aconst) else None
        | Known bases ->
            let bank_of_base b =
              match region_of_base p b with
              | None -> None
              | Some r -> (
                  match r.r_policy with
                  | Pblock -> Some r.r_bank
                  | Pcyclic ->
                      if off.agcd mod p.pn = 0 then
                        Some
                          (((Int32.to_int off.aconst mod p.pn) + p.pn) mod p.pn)
                      else None)
            in
            List.fold_left
              (fun acc b ->
                match (acc, bank_of_base b) with
                | Some x, Some y when x = y -> Some x
                | _ -> None)
              (bank_of_base (List.hd bases))
              (List.tl bases))

(* Per-function static bank table, indexed by instruction id — the form
   every consumer (scheduler, rtsim, RTL emitters) actually wants. *)
let bank_table p (f : func) : int option array =
  let tbl = Array.make (Vec.length f.insts) None in
  iter_insts f (fun i ->
      match i.kind with
      | Load _ | Store _ -> tbl.(i.id) <- bank_of_inst p f i
      | _ -> ());
  tbl
