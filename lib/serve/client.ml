(* twilld client: connect, exchange line-delimited JSON, and the
   connect-with-retry helper the CLI uses right after forking the
   daemon (the socket appears asynchronously).

   The line reader is shared by both ends of the socket: twilld's
   connection loop wraps each accepted descriptor with [of_fd] too.  A
   connection owns one small read chunk for its whole life; bytes read
   past a newline stay in it for the next [recv_line], and only a line
   that spans several reads is gathered in [line]. *)

type t = {
  fd : Unix.file_descr;
  chunk : Bytes.t; (* the connection's one read buffer *)
  mutable lo : int; (* chunk.[lo, hi) is read but not yet returned *)
  mutable hi : int;
  line : Buffer.t; (* the start of a line that spans reads *)
}

(* 4 KiB: twilld-session opens one connection per command, so a larger
   chunk costs more to allocate than the reads it saves *)
let chunk_size = 4096

let of_fd (fd : Unix.file_descr) : t =
  { fd; chunk = Bytes.create chunk_size; lo = 0; hi = 0; line = Buffer.create 256 }

let connect ?(retries = 0) ?(retry_delay = 0.05) (socket : string) : t =
  let rec go attempt =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> of_fd fd
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
  let n = String.length line + 1 in
  let b = Bytes.create n in
  Bytes.blit_string line 0 b 0 (n - 1);
  Bytes.set b (n - 1) '\n';
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write c.fd b !off (n - !off)
  done

exception Closed

(* the first newline in chunk.[i, hi), or -1 *)
let rec newline (c : t) i =
  if i >= c.hi then -1
  else if Bytes.get c.chunk i = '\n' then i
  else newline c (i + 1)

let recv_line (c : t) : string =
  let rec go () =
    match newline c c.lo with
    | -1 -> (
        Buffer.add_subbytes c.line c.chunk c.lo (c.hi - c.lo);
        c.lo <- 0;
        c.hi <- 0;
        match Unix.read c.fd c.chunk 0 chunk_size with
        | 0 -> raise Closed
        | n ->
            c.hi <- n;
            go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
    | i ->
        let s =
          if Buffer.length c.line = 0 then Bytes.sub_string c.chunk c.lo (i - c.lo)
          else begin
            Buffer.add_subbytes c.line c.chunk c.lo (i - c.lo);
            let s = Buffer.contents c.line in
            Buffer.clear c.line;
            s
          end
        in
        c.lo <- i + 1;
        s
  in
  go ()

let request (c : t) (req : Json.t) : Json.t =
  send_line c (Json.to_string req);
  Json.of_string (recv_line c)
