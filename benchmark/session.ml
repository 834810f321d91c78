(* The twilld-session request stream and the daemon harness.

   twilld keeps no request log.  Its one recorded client session is the
   CI smoke (.github/workflows/ci.yml), which runs against one daemon:

     twillc daemon check mips sha
     twillc daemon dse --grid "kernels=mips;queue_latency=2,32" --sample 8
     twillc daemon comm sha --queue-depth 2
     twillc daemon stats

   The workload repeats that session.  Each command is one op: it opens
   its own connection, sends the request lines twillc builds for it at the
   CLI's default options, and hangs up.  The seed draws what the commands
   name: check's two kernels and comm's kernel walk the eight CHStone
   kernels in seeded permutations, so every run asks for each kernel
   equally often, and each sweep gets a fresh sampling seed.  The sweep
   covers the committed grid ([Twill_dse.Grid.default], BENCH_dse.json),
   the repeated sweep DESIGN.md section 13 describes; the CI names one
   kernel only to stay short.  The daemon starts with empty caches, so the
   share of hits at each cache level is whatever the session produces.

   [daemon check] also handles each request in-process and compares; here
   that half runs after the timed loop, on 16 sampled requests. *)

module Json = Twill_serve.Json
module Client = Twill_serve.Client
module Chstone = Twill_chstone.Chstone

let kernels = Array.of_list Chstone.all

(* A request the session sends: a kernel index, or a sampling seed. *)
type request = Simulate of int | Sweep of int | Comm of int | Stats

type command = { name : string; requests : request list }

let sweep_sample = 8

let line_of (r : request) : string =
  let o = Twill.default_options in
  let src k = ("src", Json.Str kernels.(k).Chstone.source) in
  let nstages = ("nstages", Json.Int o.partition.nstages)
  and queue_latency = ("queue_latency", Json.Int o.queue_latency) in
  Json.to_string
    (Json.Obj
       (match r with
       | Simulate k ->
           [
             ("cmd", Json.Str "simulate"); src k; nstages;
             ("queue_depth", Json.Int o.queue_depth); queue_latency;
             ("backend", Json.Str (Twill.Schedule.backend_name o.backend));
             ("mem_banks", Json.Int o.mem_banks);
           ]
       | Sweep seed ->
           [ ("cmd", Json.Str "dse"); ("sample", Json.Int sweep_sample); ("seed", Json.Int seed) ]
       | Comm k ->
           [
             ("cmd", Json.Str "comm"); src k; nstages; ("queue_depth", Json.Int 2);
             queue_latency; ("comm", Json.Str "all");
           ]
       | Stats -> [ ("cmd", Json.Str "stats") ]))

type t = {
  rst : Random.State.t;
  walks : (int * int array) array;  (** check, comm: position, order *)
  mutable pending : command list;
}

let create ~seed : t =
  { rst = Random.State.make [| 0x5e55; seed |]; walks = Array.make 2 (0, [||]); pending = [] }

(* Each run of eight draws covers every kernel once, in a seeded order. *)
let next_kernel t walk =
  let pos, order = t.walks.(walk) in
  let pos, order =
    if pos >= Array.length order then
      (0, Stats.shuffle t.rst (Array.init (Array.length kernels) Fun.id))
    else (pos, order)
  in
  t.walks.(walk) <- (pos + 1, order);
  order.(pos)

let next (t : t) : command =
  if t.pending = [] then begin
    let a = next_kernel t 0 in
    let b = next_kernel t 0 in
    t.pending <-
      [
        { name = "check"; requests = [ Simulate a; Simulate b ] };
        { name = "dse"; requests = [ Sweep (Random.State.bits t.rst) ] };
        { name = "comm"; requests = [ Comm (next_kernel t 1) ] };
        { name = "stats"; requests = [ Stats ] };
      ]
  end;
  let c = List.hd t.pending in
  t.pending <- List.tl t.pending;
  c

(* --- checks ------------------------------------------------------------- *)

let describe = function
  | Simulate k -> "simulate " ^ kernels.(k).Chstone.name
  | Comm k -> "comm " ^ kernels.(k).Chstone.name
  | Sweep s -> Printf.sprintf "dse seed %d" s
  | Stats -> "stats"

let pinned k (ret : int option) =
  match (ret, kernels.(k).Chstone.expected) with
  | Some r, Some e -> r = Int32.to_int e
  | Some r, None -> r >= 0
  | None, _ -> false

(* [sent] is the number of requests the daemon has received, this one
   included: its [stats] must count exactly those. *)
let check_response (r : request) ~sent (resp : string) : (unit, string) result =
  match Json.of_string resp with
  | exception Json.Parse_error e -> Error ("unparsable response: " ^ e)
  | j ->
      let int k = Json.int_field k j in
      let ok =
        Json.bool_field "ok" j = Some true
        &&
        match r with
        | Simulate k -> pinned k (int "ret")
        | Comm k -> pinned k (int "ret") && int "base_ret" = int "ret"
        | Sweep _ ->
            int "points" = Some sweep_sample
            && Option.fold ~none:false ~some:(( <> ) []) (Json.list_field "frontier" j)
        | Stats -> int "requests" = Some sent
      in
      if ok then Ok ()
      else
        Error
          (Printf.sprintf "unexpected response to %s: %s" (describe r)
             (if String.length resp > 200 then String.sub resp 0 200 else resp))

(* The part of a response the same request must reproduce: all of it,
   except how many of a sweep's extractions were already cached. *)
let comparable (r : request) (resp : string) : string =
  match (r, Json.of_string resp) with
  | Sweep _, Json.Obj kvs ->
      Json.to_string (Json.Obj (List.filter (fun (k, _) -> k <> "elabs_reused") kvs))
  | _ -> resp

(* --- the daemon ----------------------------------------------------------- *)

type daemon = { pid : int; socket : string; mutable sent : int }

(* One client command: its own connection, one request line at a time.
   Each response comes back with its request and the number of requests
   the daemon had received when it answered. *)
let command (d : daemon) (requests : request list) : (request * int * string) list =
  let c = Client.connect d.socket in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      List.map
        (fun r ->
          d.sent <- d.sent + 1;
          Client.send_line c (line_of r);
          (r, d.sent, Client.recv_line c))
        requests)

let spawn ~exe ~socket : daemon =
  let pid =
    Unix.create_process exe
      [| exe; "--socket"; socket; "--workers"; "1" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let d = { pid; socket; sent = 0 } in
  match
    let c = Client.connect ~retries:2000 ~retry_delay:0.002 socket in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        d.sent <- 1;
        Client.send_line c {|{"cmd":"ping"}|};
        Client.recv_line c)
  with
  | pong when Json.bool_field "ok" (Json.of_string pong) = Some true -> d
  | pong ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      failwith ("twilld ping: " ^ pong)
  | exception e ->
      (try Unix.kill pid Sys.sigkill with _ -> ());
      ignore (Unix.waitpid [] pid);
      raise e

let rec wait_exit pid deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
      if Trace.now () < deadline then begin
        Unix.sleepf 0.005;
        wait_exit pid deadline
      end
      else false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* [stop] alone does not end twilld: the accept loop stays blocked after
   the listening socket is closed.  So: stop, hang up, give it a quarter
   of a second (a daemon that honours [stop] exits in milliseconds), then
   SIGTERM and, failing that, SIGKILL. *)
let shutdown (d : daemon) =
  (try
     let c = Client.connect d.socket in
     Fun.protect
       ~finally:(fun () -> Client.close c)
       (fun () ->
         Client.send_line c {|{"cmd":"stop"}|};
         ignore (Client.recv_line c))
   with _ -> ());
  if not (wait_exit d.pid (Trace.now () +. 0.25)) then begin
    (try Unix.kill d.pid Sys.sigterm with _ -> ());
    if not (wait_exit d.pid (Trace.now () +. 1.)) then begin
      (try Unix.kill d.pid Sys.sigkill with _ -> ());
      ignore (wait_exit d.pid infinity)
    end
  end;
  try Unix.unlink d.socket with _ -> ()

(* hits / (hits + misses) over every cache level named [level] ("elab" or
   "sim") in a [stats] response, whatever the request kind *)
let hit_ratio (stats : Json.t) (level : string) : float =
  let h, m =
    match Json.find "by_kind" stats with
    | Some (Json.Obj kinds) ->
        List.fold_left
          (fun (h, m) (kind, k) ->
            if String.ends_with ~suffix:(":" ^ level) kind then
              ( h + Option.value (Json.int_field "hits" k) ~default:0,
                m + Option.value (Json.int_field "misses" k) ~default:0 )
            else (h, m))
          (0, 0) kinds
    | _ -> (0, 0)
  in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)
