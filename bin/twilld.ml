(* twilld — the persistent Twill compile/simulate daemon.

   Serves the line-delimited JSON protocol of [Twill_serve.Server] over
   a Unix-domain socket: parse/elaborate/schedule/simulate requests with
   content-hash-keyed caches and a persistent worker pool for dse
   sweeps, so repeated compiles of the same kernel amortise elaboration
   across requests instead of paying it per process.  Clients: `twillc daemon ...`, or
   anything that can write JSON lines to a socket. *)

open Cmdliner

let socket =
  Arg.(
    value
    & opt string "/tmp/twilld.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let workers =
  Arg.(
    value
    & opt (some int) None
    & info [ "workers" ]
        ~doc:
          "Worker domains for the extraction groups of a dse sweep \
           (default: the machine's spare cores).")

let serve_cmd =
  let run socket workers =
    let t = Twill_serve.Server.create ?workers () in
    Fmt.pr "twilld: pid %d listening on %s (%d workers)@." (Unix.getpid ())
      socket
      (Twill.Par.pool_workers t.Twill_serve.Server.pool);
    Twill_serve.Server.serve t ~socket;
    Fmt.pr "twilld: stopped@."
  in
  Cmd.v
    (Cmd.info "twilld"
       ~doc:"Persistent Twill compile/simulate service over a Unix socket")
    Term.(const run $ socket $ workers)

let () = exit (Cmd.eval serve_cmd)
