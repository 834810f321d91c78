(* The four workloads: input generation (set-up), the timed loop, and the
   metrics each run reports. *)

module Chstone = Twill_chstone.Chstone
module Json = Twill_serve.Json

type t = Chstone_flow | Chstone_cosim | Gen_compile | Twilld_session

let all = [ Chstone_flow; Chstone_cosim; Gen_compile; Twilld_session ]

let name = function
  | Chstone_flow -> "chstone-flow"
  | Chstone_cosim -> "chstone-cosim"
  | Gen_compile -> "gen-compile"
  | Twilld_session -> "twilld-session"

let of_name s = List.find_opt (fun w -> name w = s) all

(* Generated programs per seed, cycled until the run's time is up: the
   same inputs however fast the machine is. *)
let gen_pool = 6000

(* AST-reference fuel for generated programs; a program that needs more
   is skipped, not failed.  About 0.2% of programs need more, and they are
   the ones whose run time and memory would otherwise set the latency tail
   and peak RSS of a whole run. *)
let gen_ref_fuel = 100_000

(* Peak RSS is read after a fixed number of ops, so it does not depend on
   how many ops fit in the run: one pass over the kernels, one pass over
   the generated programs, or 100 twilld sessions (by then every one of
   the committed grid's 24 extractions is cached, and check and comm have
   named every kernel many times). *)
let rss_checkpoint = function
  | Chstone_flow | Chstone_cosim -> 8
  | Gen_compile -> gen_pool
  | Twilld_session -> 400

(* Throughput is the median rate over windows of this many ops: 200
   programs, or 10 twilld sessions of four commands.  (CHStone throughput
   comes from per-kernel medians instead.) *)
let window = function
  | Chstone_flow | Chstone_cosim -> 8
  | Gen_compile -> 200
  | Twilld_session -> 40

(* --- the timed loop ------------------------------------------------------ *)

type acc = {
  mutable attempted : int;
  mutable failed : int;
  mutable skipped : int;
  mutable next_id : int;
  mutable samples : (string * float) list;  (** (class, seconds) per op *)
  mutable errors : string list;  (** newest first *)
}

let new_acc () =
  { attempted = 0; failed = 0; skipped = 0; next_id = 0; samples = []; errors = [] }

let fail acc msg =
  acc.attempted <- acc.attempted + 1;
  acc.failed <- acc.failed + 1;
  acc.errors <- msg :: acc.errors

(* Runs one checked op inside an "op" span and records its latency. *)
let op acc label (f : unit -> ('a, string) result) : 'a option =
  let id = acc.next_id in
  acc.next_id <- id + 1;
  let t0 = Trace.now () in
  let r = try Trace.op id f with e -> Error (label ^ ": " ^ Printexc.to_string e) in
  let dt = Trace.now () -. t0 in
  match r with
  | Ok x ->
      acc.attempted <- acc.attempted + 1;
      acc.samples <- (label, dt) :: acc.samples;
      Some x
  | Error e ->
      fail acc e;
      None

(* Repeats [step] until [seconds] have passed (at least once) and
   returns the wall time taken. *)
let repeat ~seconds step =
  let t0 = Trace.now () in
  let rec go () =
    step ();
    if Trace.now () -. t0 < seconds then go ()
  in
  go ();
  Trace.now () -. t0

(* --- workload state -------------------------------------------------------- *)

(* One design an op produced: rtsim cycles, LUTs and, for cosim, the RTL
   simulation's cycles (0 otherwise). *)
type design = { cycles : int; luts : int; rtl_cycles : int }

type chstone = {
  cosim : bool;
  rst : Random.State.t;  (** kernel order of each pass after the first *)
  results : (string, design list) Hashtbl.t;  (** kernel -> first pass *)
}

type gen = {
  pool : string array;
  mutable next : int;
  gen_cycles : int array;  (** simulated cycles of each program run, else 0 *)
}

type twilld = {
  session : Session.t;
  daemon : Session.daemon;
  first : (Session.request, string) Hashtbl.t;
      (** distinct request -> the comparable part of its first response *)
}

type state = Chstone of chstone | Gen of gen | Twilld of twilld

let proc_status_kb pid field =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec go () =
    match input_line ic with
    | l when String.starts_with ~prefix:(field ^ ":") l ->
        Scanf.sscanf
          (String.sub l (String.length field + 1)
             (String.length l - String.length field - 1))
          " %d" Fun.id
    | _ -> go ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let twilld_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "twilld.exe")

(* Generates the inputs and, for twilld-session, starts the daemon and
   waits for it to answer [ping]: everything [setup_s] times. *)
let prepare (w : t) ~seed : state =
  match w with
  | Chstone_flow | Chstone_cosim ->
      Chstone
        {
          cosim = w = Chstone_cosim;
          rst = Random.State.make [| 0xc5; seed |];
          results = Hashtbl.create 16;
        }
  | Gen_compile ->
      Gen
        {
          pool =
            Array.init gen_pool (fun index ->
                Twill_minic.Ast_pp.program_to_string
                  (Twill_fuzz.Gen.program ~seed ~index));
          next = 0;
          gen_cycles = Array.make gen_pool 0;
        }
  | Twilld_session ->
      let exe = twilld_exe () in
      if not (Sys.file_exists exe) then failwith (exe ^ " is not built");
      (* inside the build directory, which the checkout already ignores; a
         relative path stays short of the Unix socket path limit *)
      let socket =
        Filename.concat "_build" (Printf.sprintf "twilld-%d.sock" (Unix.getpid ()))
      in
      Twilld
        {
          session = Session.create ~seed;
          daemon = Session.spawn ~exe ~socket;
          first = Hashtbl.create 1024;
        }

(* Peak RSS of the process doing the work: the daemon for twilld-session. *)
let peak_rss_kb = function
  | Twilld s -> proc_status_kb (string_of_int s.daemon.Session.pid) "VmHWM"
  | Chstone _ | Gen _ -> proc_status_kb "self" "VmHWM"

let release = function
  | Twilld s -> Session.shutdown s.daemon
  | Chstone _ | Gen _ -> ()

(* Compares a design's numbers with the first pass's: a difference means
   the stack is not deterministic. *)
let same_as_first (c : chstone) kernel designs =
  match Hashtbl.find_opt c.results kernel with
  | None ->
      Hashtbl.replace c.results kernel designs;
      Ok ()
  | Some prev when prev = designs -> Ok ()
  | Some _ -> Error (kernel ^ ": cycles or LUTs differ from the first pass")

(* One client command; every response must pass its check, and a request
   sent before must get the same response back. *)
let twilld_send acc (s : twilld) (c : Session.command) =
  let check (r, sent, resp) =
    Result.bind (Session.check_response r ~sent resp) (fun () ->
        if r = Session.Stats then Ok ()
        else
          let mine = Session.comparable r resp in
          match Hashtbl.find_opt s.first r with
          | None ->
              Hashtbl.replace s.first r mine;
              Ok ()
          | Some f when f = mine -> Ok ()
          | Some _ -> Error (c.Session.name ^ ": response differs from the first one"))
  in
  ignore
    (op acc c.Session.name (fun () ->
         Trace.span ("serve." ^ c.Session.name) (fun () ->
             Session.command s.daemon c.Session.requests)
         |> List.fold_left (fun res x -> Result.bind res (fun () -> check x)) (Ok ())))

(* The rtsim cycles a run's designs took, in an order that does not
   depend on the run (so their geomean repeats to the last bit): every
   generated program run, or every kernel check has simulated. *)
let gen_cycles (g : gen) : float list =
  Array.to_list g.gen_cycles
  |> List.filter_map (fun c -> if c > 0 then Some (float_of_int c) else None)

let twilld_kernel_cycles (s : twilld) : float list =
  Hashtbl.fold
    (fun r resp acc ->
      match r with
      | Session.Simulate _ -> (
          match Json.int_field "cycles" (Json.of_string resp) with
          | Some c -> float_of_int c :: acc
          | None -> acc)
      | Session.Sweep _ | Session.Comm _ | Session.Stats -> acc)
    s.first []
  |> List.sort compare

(* One step of the timed loop: a pass over the eight kernels, one
   generated program, or one twillc command. *)
let step (acc : acc) (st : state) () =
  match st with
  | Chstone c ->
      (* the first pass, which sets peak RSS, runs in registry order: the
         heap a pass leaves behind depends on the order of its kernels *)
      let order = Array.of_list Chstone.all in
      (if Hashtbl.length c.results = 0 then order else Stats.shuffle c.rst order)
      |> Array.iter (fun (b : Chstone.benchmark) ->
             let k = b.Chstone.name in
             ignore
               (op acc k (fun () ->
                    if c.cosim then
                      Result.bind (Layers.cosim b) (fun (r : Layers.cosim) ->
                          let d (x : Layers.cosim_backend) =
                            {
                              cycles = x.Layers.model_cycles;
                              luts = x.Layers.luts;
                              rtl_cycles = x.Layers.rtl_cycles;
                            }
                          in
                          same_as_first c k [ d r.Layers.fsm; d r.Layers.dataflow ])
                    else
                      Result.bind (Layers.flow b) (fun (r : Layers.flow) ->
                          same_as_first c k
                            [ { cycles = r.Layers.cycles; luts = r.Layers.luts; rtl_cycles = 0 } ]))))
  | Gen g -> (
      let index = g.next mod gen_pool in
      g.next <- g.next + 1;
      match
        op acc "gen" (fun () ->
            Result.map_error
              (Printf.sprintf "program %d: %s" index)
              (Layers.gen ~ref_fuel:gen_ref_fuel g.pool.(index)))
      with
      | Some (Layers.Gen_ok c) -> g.gen_cycles.(index) <- c
      | Some Layers.Gen_skipped ->
          (* the reference gave no verdict: not an attempt *)
          acc.attempted <- acc.attempted - 1;
          acc.skipped <- acc.skipped + 1;
          acc.samples <- List.tl acc.samples
      | None -> ())
  | Twilld s -> twilld_send acc s (Session.next s.session)

(* --- after the run ------------------------------------------------------- *)

(* Untimed: 16 sampled distinct requests handled by an in-process server
   must get byte-identical responses (the [twillc daemon check] rule). *)
let cross_check (acc : acc) (s : twilld) ~seed =
  let local = Twill_serve.Server.create ~workers:0 () in
  let rst = Random.State.make [| 0xc4ec; seed |] in
  let distinct =
    Array.of_list (List.sort compare (Hashtbl.fold (fun r _ l -> r :: l) s.first []))
  in
  for _ = 1 to min 16 (Array.length distinct) do
    let r = distinct.(Random.State.int rst (Array.length distinct)) in
    let here =
      Json.to_string
        (Twill_serve.Server.handle local (Json.of_string (Session.line_of r)))
    in
    if Session.comparable r here <> Hashtbl.find s.first r then
      fail acc
        (Session.describe r ^ ": daemon and in-process responses differ")
  done;
  Twill.Par.pool_shutdown local.Twill_serve.Server.pool
