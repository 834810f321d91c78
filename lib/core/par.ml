(* Deterministic domain-parallelism for independent evaluation scenarios.

   A process-wide slot budget of [recommended_domain_count () - 1] bounds
   the number of live worker domains no matter how callers nest ([pair]
   inside [map] inside the benchmark harness): a combinator only spawns a
   domain when it wins a slot, and otherwise runs the work inline on the
   calling domain.  Results keep the input order and exceptions are
   re-raised on the caller, so a parallel run is observationally the same
   as the sequential one provided the thunks are independent — which is
   exactly the contract the driver's scenarios satisfy now that DSWP no
   longer mutates its input module. *)

let slots =
  Atomic.make (max 0 (Domain.recommended_domain_count () - 1))

let rec try_take () =
  let n = Atomic.get slots in
  if n <= 0 then false
  else if Atomic.compare_and_set slots n (n - 1) then true
  else try_take ()

let release () = Atomic.incr slots
let available () = Atomic.get slots

let map (f : 'a -> 'b) (xs : 'a list) : 'b list =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let results : ('b, exn) result option array = Array.make n None in
      let run i =
        results.(i) <- Some (try Ok (f arr.(i)) with e -> Error e)
      in
      let doms = ref [] in
      (* index 0 always runs on the caller, so at least one item makes
         progress even with an empty budget *)
      for i = 1 to n - 1 do
        if try_take () then
          doms :=
            Domain.spawn (fun () ->
                Fun.protect ~finally:release (fun () -> run i))
            :: !doms
        else run i
      done;
      run 0;
      List.iter Domain.join !doms;
      Array.to_list results
      |> List.map (function
           | Some (Ok y) -> y
           | Some (Error e) -> raise e
           | None -> assert false)

(* --- persistent worker pool --------------------------------------------- *)

(* A long-lived pool for servers (twilld): worker domains are spawned
   once — against the same process-wide slot budget as the one-shot
   combinators, so a pool plus nested [map]/[pair] calls still cannot
   oversubscribe — and jobs are fed through a shared queue, so a server
   pays for spawning domains once rather than per request.  twilld's
   handlers keep no per-domain state: their caches live in the server,
   shared by every worker.

   The caller of [pool_map] always participates — it runs the first item
   inline and then helps drain the queue — so a pool with zero workers
   (single-core budget) degrades to a plain sequential map instead of
   deadlocking. *)

type pool = {
  pmu : Mutex.t;
  pcond : Condition.t; (* signals: new task, shutdown, or task completion *)
  ptasks : (unit -> unit) Queue.t;
  mutable pshut : bool;
  mutable pdoms : unit Domain.t list;
  mutable pworkers : int;
}

let rec pool_worker (p : pool) () =
  Mutex.lock p.pmu;
  while Queue.is_empty p.ptasks && not p.pshut do
    Condition.wait p.pcond p.pmu
  done;
  if Queue.is_empty p.ptasks then (* shutting down *) Mutex.unlock p.pmu
  else begin
    let task = Queue.pop p.ptasks in
    Mutex.unlock p.pmu;
    task ();
    pool_worker p ()
  end

let pool ?workers () : pool =
  let want =
    match workers with
    | Some w -> max 0 w
    | None -> max 0 (Domain.recommended_domain_count () - 1)
  in
  let p =
    {
      pmu = Mutex.create ();
      pcond = Condition.create ();
      ptasks = Queue.create ();
      pshut = false;
      pdoms = [];
      pworkers = 0;
    }
  in
  let spawned = ref 0 in
  for _ = 1 to want do
    if try_take () then begin
      incr spawned;
      p.pdoms <-
        Domain.spawn (fun () ->
            Fun.protect ~finally:release (fun () -> pool_worker p ()))
        :: p.pdoms
    end
  done;
  p.pworkers <- !spawned;
  p

let pool_workers (p : pool) = p.pworkers

let pool_map (p : pool) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let results : ('b, exn) result option array = Array.make n None in
      let completed = ref 0 in
      let task i () =
        let r = try Ok (f arr.(i)) with e -> Error e in
        Mutex.lock p.pmu;
        results.(i) <- Some r;
        incr completed;
        Condition.broadcast p.pcond;
        Mutex.unlock p.pmu
      in
      Mutex.lock p.pmu;
      for i = 1 to n - 1 do
        Queue.add (task i) p.ptasks
      done;
      Condition.broadcast p.pcond;
      Mutex.unlock p.pmu;
      task 0 ();
      (* help drain the queue (possibly including other callers' jobs —
         work conservation), then wait out any in-flight workers *)
      let rec help () =
        Mutex.lock p.pmu;
        if Queue.is_empty p.ptasks then Mutex.unlock p.pmu
        else begin
          let t = Queue.pop p.ptasks in
          Mutex.unlock p.pmu;
          t ();
          help ()
        end
      in
      help ();
      Mutex.lock p.pmu;
      while !completed < n do
        Condition.wait p.pcond p.pmu
      done;
      Mutex.unlock p.pmu;
      Array.to_list results
      |> List.map (function
           | Some (Ok y) -> y
           | Some (Error e) -> raise e
           | None -> assert false)

let pool_shutdown (p : pool) =
  Mutex.lock p.pmu;
  p.pshut <- true;
  Condition.broadcast p.pcond;
  Mutex.unlock p.pmu;
  List.iter Domain.join p.pdoms;
  p.pdoms <- []

let pair (f : unit -> 'a) (g : unit -> 'b) : 'a * 'b =
  if try_take () then begin
    let d =
      Domain.spawn (fun () ->
          Fun.protect ~finally:release (fun () ->
              try Ok (g ()) with e -> Error e))
    in
    let a = try Ok (f ()) with e -> Error e in
    let b = Domain.join d in
    match (a, b) with
    | Ok a, Ok b -> (a, b)
    | Error e, _ | _, Error e -> raise e
  end
  else
    let a = f () in
    let b = g () in
    (a, b)
