(* twilld client: connect, exchange line-delimited JSON, and the
   connect-with-retry helper the CLI uses right after forking the
   daemon (the socket appears asynchronously). *)

type t = { fd : Unix.file_descr; buf : Buffer.t }

let connect ?(retries = 0) ?(retry_delay = 0.05) (socket : string) : t =
  let rec go attempt =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> { fd; buf = Buffer.create 4096 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when attempt < retries ->
        (try Unix.close fd with _ -> ());
        Unix.sleepf retry_delay;
        go (attempt + 1)
    | exception e ->
        (try Unix.close fd with _ -> ());
        raise e
  in
  go 0

let close (c : t) = try Unix.close c.fd with _ -> ()

let send_line (c : t) (line : string) =
  let b = Bytes.of_string (line ^ "\n") in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write c.fd b !off (n - !off)
  done

exception Closed

let recv_line (c : t) : string =
  let chunk = Bytes.create 65536 in
  let rec go () =
    let s = Buffer.contents c.buf in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear c.buf;
        Buffer.add_string c.buf
          (String.sub s (i + 1) (String.length s - i - 1));
        String.sub s 0 i
    | None -> (
        match Unix.read c.fd chunk 0 65536 with
        | 0 -> raise Closed
        | n ->
            Buffer.add_subbytes c.buf chunk 0 n;
            go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let request (c : t) (req : Json.t) : Json.t =
  send_line c (Json.to_string req);
  Json.of_string (recv_line c)

