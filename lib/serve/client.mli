(** twilld's line-delimited connection, used by both ends of the
    socket: [twillc daemon] and the benchmark's session client on one
    side, twilld's connection loop on the other. *)

type t
(** A connection and its one read chunk. *)

val of_fd : Unix.file_descr -> t
(** The connection over a connected socket: the one constructor. *)

val connect : ?retries:int -> ?retry_delay:float -> string -> t
(** Connects to the Unix-domain [socket], retrying [retries] times
    [retry_delay] seconds apart while it is missing or refuses. *)

val close : t -> unit

val send_line : t -> string -> unit
(** Writes the line and its ['\n'] in one buffer. *)

exception Closed

val recv_line : t -> string
(** The next line, without its ['\n']; bytes read past it are kept for
    the next call.  Raises [Closed] at end of input, also inside a
    line. *)

val request : t -> Json.t -> Json.t
(** One request line sent, one response line read. *)
