(** The option table: every user-facing knob of {!Twill.options},
    defined once.

    An entry gives one knob's spellings, its exact printer and parser
    (the parser rejects out-of-range values with a message naming the
    knob and the valid range), and its {!level}.  twillc's flags,
    twilld's request fields, the DSE grid axes and result rows and both
    cache keys derive from the entries; a surface picks the entries it
    exposes by naming them. *)

module Partition = Twill_dswp.Partition
module Schedule = Twill_hls.Schedule
module Comm = Twill_comm.Comm

(** The record re-exported (and documented) as {!Twill.options}. *)
type t = {
  partition : Partition.config;
  queue_depth : int;
  queue_latency : int;
  inline_aggressive : bool;
  inline_threshold : int;
  unroll : bool;
  resources : Schedule.resources;
  modulo : bool;
  fuel : int;
  backend : Schedule.backend;
  pipeline_break : string option;
  comm : Comm.config;
  mem_banks : int;
  check_memdep : bool;
}

val default : t

(** The earliest stage that reads a knob: the pass pipeline, DSWP
    extraction (which includes the profiling run), or the simulators. *)
type level = Compile | Extract | Sim

(** The JSON shape of a knob's value on the twilld wire and in DSE
    result rows. *)
type wire = Int | Float | Bool | Str

type knob = {
  name : string;  (** twilld request field and cache-key tag *)
  grid : string;  (** DSE grid axis and result-row field *)
  aliases : string list;  (** further spellings a grid spec accepts *)
  flag : string option;  (** twillc [--flag], if the CLI exposes one *)
  level : level;
  wire : wire;
  docv : string;
  doc : string;
  print : t -> string;  (** exact: [parse (print o) o = Ok o] *)
  parse : string -> t -> (t, string) result;
      (** sets the knob, or names the knob and the valid range *)
}

val nstages : knob
val sw_frac : knob
val unroll : knob
val inline_aggressive : knob
val pipeline_break : knob
val queue_depth : knob
val fuel : knob
val comm : knob
val queue_latency : knob
val backend : knob
val mem_banks : knob

val table : knob list
(** Every knob, Compile level first. *)

val find : knob list -> string -> knob option
(** The knob spelled [name], [grid] or one of its [aliases]. *)

val key : ?knobs:knob list -> t -> string
(** ["name=value;..."] over [knobs] (default: the whole table). *)

val extract_key : t -> string
(** {!key} over the Compile and Extract knobs, plus every Sim knob when
    the comm passes need a profile ({!Comm.needs_profile}): the seed
    simulation inside extraction then reads the simulator
    configuration.  Options sharing it (on one source) share one
    extracted design. *)

val float_to_string : float -> string
(** Shortest decimal form that reads back as the same float. *)
