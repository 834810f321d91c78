(* Communication-pattern optimizer over the DSWP channel graph.

   DSWP pipelines are bounded by produce/consume traffic on the module
   bus — the thesis's own queue-depth sensitivity study (Tables 6.x)
   shows cycle counts swinging with channel sizing.  This module turns
   that knob into a profile-guided optimizer: a seed rtsim run collects
   the per-channel {!Twill_rtsim.Sim.queue_profile} (occupancy
   histograms, high-water marks, burst-length distributions, stall
   attribution), and four independently-toggleable passes act on it, in
   this order:

   - "licm"  — communication loop-invariant code motion: a branch
     condition defined outside its loop hoists the produce/consume pair
     to the loop preheader (one transfer per entry instead of one per
     iteration); the redundant per-iteration consumes disappear with it.
     Applied during extraction ({!Twill_dswp.Threadgen.generate}
     [~licm_conds]) because it is the same-point climb the loop-matching
     machinery already performs for data channels; reported here.
   - "merge" — channel merging: channels between the same stage pair
     whose sites share one original block are emitted in one canonical
     order by both endpoint stages ([Threadgen]'s per-site ordering), so
     their values can share a single physical queue — the "tag" that
     demultiplexes them is the static position-in-burst, no wire bits.
     Produce/Consume instructions are rewritten onto the surviving
     queue; the absorbed ids keep their metadata with [merged_into] set
     and no RTL instance is emitted for them.
   - "size"  — auto queue sizing: depth from the simulated high-water
     mark plus one slot of slack (never stalls where the seed run did
     not — cycle-neutral shrink), or doubled where the profile shows
     producer-full stalls at the current depth (stall-removing growth).
     The per-queue [depth] field feeds rtsim, the area model, vsim
     cosim and the RTL emitter alike.
   - "burst" — burst coalescing: queues whose profile shows back-to-back
     produce runs (and merge survivors with several same-site channels,
     which are back-to-back by construction) are flagged so that a
     produce starting exactly when the previous one ended rides the same
     multi-word bus transaction instead of re-arbitrating.

   Legality notes live with each pass below and in DESIGN.md §14.  Every
   pass preserves the same-point discipline (both endpoints of a channel
   always move or rename together), so count matching and with it
   deadlock freedom survive each transformation. *)

open Twill_ir.Ir
module Sim = Twill_rtsim.Sim
module Threadgen = Twill_dswp.Threadgen
module Dswp = Twill_dswp.Dswp

type config = { licm : bool; merge : bool; size : bool; burst : bool }

let none = { licm = false; merge = false; size = false; burst = false }
let all = { licm = true; merge = true; size = true; burst = true }

let pass_names = [ "licm"; "merge"; "size"; "burst" ]

let enabled c = c.licm || c.merge || c.size || c.burst
let needs_profile c = c.size || c.burst

let show (c : config) : string =
  let l =
    List.filter
      (fun n ->
        match n with
        | "licm" -> c.licm
        | "merge" -> c.merge
        | "size" -> c.size
        | "burst" -> c.burst
        | _ -> false)
      pass_names
  in
  match l with [] -> "none" | l -> String.concat "," l

let parse (s : string) : (config, string) result =
  match String.trim s with
  | "" | "none" -> Ok none
  | "all" | "full" -> Ok all
  | s -> (
      try
        Ok
          (List.fold_left
             (fun acc tok ->
               match String.trim tok with
               | "licm" -> { acc with licm = true }
               | "merge" -> { acc with merge = true }
               | "size" -> { acc with size = true }
               | "burst" -> { acc with burst = true }
               | t ->
                   failwith
                     (Printf.sprintf
                        "unknown comm pass %S (expected licm|merge|size|burst)"
                        t))
             none
             (String.split_on_char ',' s))
      with Failure msg -> Error msg)

(* The per-channel profile of a seed (unoptimized) simulation, indexed
   by queue id — exactly [stats.queue_profiles]. *)
type profile = Sim.queue_profile array

type report = {
  rconfig : config;
  ran : string list; (* pass names applied, in pipeline order *)
  licm_hoists : int; (* channels hoisted to preheaders at extraction *)
  merges : (int * int) list; (* absorbed qid -> surviving qid *)
  resizes : (int * int * int) list; (* qid, old depth, new depth *)
  burst_qids : int list; (* queues flagged for burst coalescing *)
}

let empty_report c =
  {
    rconfig = c;
    ran = [];
    licm_hoists = 0;
    merges = [];
    resizes = [];
    burst_qids = [];
  }

(* --- channel merging ------------------------------------------------------ *)

(* Channels between the same (src, dst) stage pair whose produce/consume
   sites live in the same original block are emitted — by both endpoint
   stages — in one canonical order ([Threadgen]'s [site_chans] sort plus
   block-position order), so pushing their values through one physical
   FIFO preserves exactly the pairing the separate FIFOs had: the k-th
   produce of the group always meets the k-th consume.  The shared queue
   takes the widest member's width (widening never truncates).  Depth is
   left to the "size" pass; the same-point discipline is untouched
   because every operation keeps its program point and only renames its
   queue, so deadlock freedom is preserved (the globally-earliest
   pending site can still always progress: all earlier-site items have
   been consumed by then, leaving the shared queue non-full). *)
let merge_channels (t : Dswp.threaded) : (int * int) list =
  let funcs : (int, func) Hashtbl.t = Hashtbl.create 8 in
  let stage_func s =
    match Hashtbl.find_opt funcs s with
    | Some f -> f
    | None ->
        let f = find_func t.Dswp.modul t.Dswp.stages.(s) in
        Hashtbl.replace funcs s f;
        f
  in
  let rewrite_queue ~(src : int) ~(dst : int) ~(from : int) ~(into : int) =
    iter_insts (stage_func src) (fun i ->
        match i.kind with
        | Produce (q, v) when q = from -> i.kind <- Produce (into, v)
        | _ -> ());
    iter_insts (stage_func dst) (fun i ->
        match i.kind with
        | Consume q when q = from -> i.kind <- Consume into
        | _ -> ())
  in
  let groups : (int * int * int, Threadgen.queue_info list) Hashtbl.t =
    Hashtbl.create 16
  in
  Array.iter
    (fun (q : Threadgen.queue_info) ->
      if q.Threadgen.site_block >= 0 && q.Threadgen.merged_into = None then begin
        let key = (q.Threadgen.src_stage, q.Threadgen.dst_stage, q.Threadgen.site_block) in
        let prev = try Hashtbl.find groups key with Not_found -> [] in
        Hashtbl.replace groups key (q :: prev)
      end)
    t.Dswp.queues;
  let merges = ref [] in
  (* deterministic order: groups sorted by their smallest member qid *)
  let grouped =
    Hashtbl.fold (fun _ l acc -> l :: acc) groups []
    |> List.map
         (List.sort (fun (a : Threadgen.queue_info) b ->
              compare a.Threadgen.qid b.Threadgen.qid))
    |> List.filter (fun l -> List.length l >= 2)
    |> List.sort (fun a b ->
           compare
             (List.hd a).Threadgen.qid
             (List.hd b).Threadgen.qid)
  in
  List.iter
    (fun group ->
      match group with
      | [] | [ _ ] -> ()
      | target :: rest ->
          List.iter
            (fun (q : Threadgen.queue_info) ->
              rewrite_queue ~src:q.Threadgen.src_stage ~dst:q.Threadgen.dst_stage
                ~from:q.Threadgen.qid ~into:target.Threadgen.qid;
              q.Threadgen.merged_into <- Some target.Threadgen.qid;
              if q.Threadgen.width_bits > target.Threadgen.width_bits then
                target.Threadgen.width_bits <- q.Threadgen.width_bits;
              (* capacity-preserving: the shared FIFO inherits the summed
                 member depths, so merging never reduces the buffering any
                 single channel saw — the area win is the N-1 spare FIFO
                 controllers, and the "size" pass trims the slots later
                 from measured peaks *)
              target.Threadgen.depth <-
                min 1024 (target.Threadgen.depth + q.Threadgen.depth);
              merges := (q.Threadgen.qid, target.Threadgen.qid) :: !merges)
            rest)
    grouped;
  List.rev !merges

(* members absorbed into [q] (including [q] itself) *)
let members_of (t : Dswp.threaded) (q : Threadgen.queue_info) :
    Threadgen.queue_info list =
  q
  :: (Array.to_list t.Dswp.queues
     |> List.filter (fun (m : Threadgen.queue_info) ->
            m.Threadgen.merged_into = Some q.Threadgen.qid))

(* --- auto queue sizing ---------------------------------------------------- *)

(* Depth from the seed run's high-water mark + 1 slot of slack: the
   producer blocks only when occupancy reaches the depth, and occupancy
   never exceeded the peak in the seed run, so peak+1 never introduces a
   stall the seed run didn't have — the shrink is cycle-neutral by
   construction (and pays for itself in BRAM/LUTs).  Where the profile
   shows producer-full stalls *at* the current depth the queue is the
   bottleneck and doubles instead.  For merge survivors the members'
   peaks are summed — a safe over-estimate of the combined occupancy. *)
let size_queues (t : Dswp.threaded) (profile : profile) :
    (int * int * int) list =
  let resizes = ref [] in
  Array.iter
    (fun (q : Threadgen.queue_info) ->
      if q.Threadgen.merged_into = None then begin
        let members = members_of t q in
        let sum f =
          List.fold_left (fun acc m -> acc + f profile.(m.Threadgen.qid)) 0 members
        in
        let produces = sum (fun p -> p.Sim.qp_produces) in
        let peak = sum (fun p -> p.Sim.qp_peak) in
        let stall = sum (fun p -> p.Sim.qp_stall_full) in
        if produces > 0 then begin
          let old = q.Threadgen.depth in
          let fresh =
            if stall > 0 && peak >= old then min 1024 (max (old * 2) (peak + 1))
            else max 1 (min old (peak + 1))
          in
          if fresh <> old then begin
            q.Threadgen.depth <- fresh;
            resizes := (q.Threadgen.qid, old, fresh) :: !resizes
          end
        end
      end)
    t.Dswp.queues;
  List.rev !resizes

(* --- burst coalescing ----------------------------------------------------- *)

(* Queues whose seed profile shows produce runs of length >= 2 (buckets
   past the first), and merge survivors with several same-site members
   (back-to-back by construction, invisible to the pre-merge per-queue
   histograms).  The flag makes the simulator grant a produce that
   starts exactly at the previous produce's end without re-arbitrating:
   one bus transaction carries the whole run, which is how the wider
   burst write behaves on the module bus. *)
let flag_bursts (t : Dswp.threaded) (profile : profile option)
    ~(merged : bool) : int list =
  let flagged = ref [] in
  Array.iter
    (fun (q : Threadgen.queue_info) ->
      if q.Threadgen.merged_into = None then begin
        let members = members_of t q in
        let measured_runs =
          match profile with
          | None -> false
          | Some prof ->
              List.exists
                (fun (m : Threadgen.queue_info) ->
                  let h = prof.(m.Threadgen.qid).Sim.qp_prod_bursts in
                  let runs = ref 0 in
                  for i = 1 to Array.length h - 1 do
                    runs := !runs + h.(i)
                  done;
                  !runs > 0)
                members
        in
        let static_adjacent = merged && List.length members >= 2 in
        if measured_runs || static_adjacent then begin
          q.Threadgen.burst <- true;
          flagged := q.Threadgen.qid :: !flagged
        end
      end)
    t.Dswp.queues;
  List.rev !flagged

(* --- the staged pass pipeline --------------------------------------------- *)

(* Applies the enabled passes to an extracted design, in the fixed
   order [pass_names].  "licm" ran at extraction time (it is a site
   placement choice, not a rewrite) — [t.comm_licm_hoists] carries its
   action count into the report.  [profile] comes from a seed
   simulation of the unoptimized design; without one the
   profile-guided passes degrade gracefully ("size" is a no-op, "burst"
   only flags merge survivors). *)
let apply ~(config : config) ?(profile : profile option)
    (t : Dswp.threaded) : report =
  let ran = ref [] in
  let run name on = if on then ran := name :: !ran in
  run "licm" config.licm;
  let merges = if config.merge then merge_channels t else [] in
  run "merge" config.merge;
  let resizes =
    match (config.size, profile) with
    | true, Some p -> size_queues t p
    | _ -> []
  in
  run "size" config.size;
  let bursts =
    if config.burst then flag_bursts t profile ~merged:config.merge else []
  in
  run "burst" config.burst;
  {
    rconfig = config;
    ran = List.rev !ran;
    licm_hoists = (if config.licm then t.Dswp.comm_licm_hoists else 0);
    merges;
    resizes;
    burst_qids = bursts;
  }

(* --- report rendering ----------------------------------------------------- *)

let report_lines (r : report) : string list =
  [
    Printf.sprintf "comm-opt: %s" (show r.rconfig);
    Printf.sprintf "  ran: %s"
      (match r.ran with [] -> "-" | l -> String.concat " -> " l);
    Printf.sprintf "  licm: %d channel(s) hoisted to preheaders" r.licm_hoists;
    Printf.sprintf "  merge: %d channel(s) absorbed%s" (List.length r.merges)
      (match r.merges with
      | [] -> ""
      | l ->
          " ("
          ^ String.concat ", "
              (List.map (fun (a, b) -> Printf.sprintf "q%d->q%d" a b) l)
          ^ ")");
    Printf.sprintf "  size: %d queue(s) re-sized%s" (List.length r.resizes)
      (match r.resizes with
      | [] -> ""
      | l ->
          " ("
          ^ String.concat ", "
              (List.map
                 (fun (q, o, n) -> Printf.sprintf "q%d:%d->%d" q o n)
                 l)
          ^ ")");
    Printf.sprintf "  burst: %d queue(s) flagged%s" (List.length r.burst_qids)
      (match r.burst_qids with
      | [] -> ""
      | l ->
          " ("
          ^ String.concat ", " (List.map (Printf.sprintf "q%d") l)
          ^ ")");
  ]
