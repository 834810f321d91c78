(** Design-space grids: the axes of the thesis's Chapter-6 sensitivity
    studies as one first-class value, enumerated in a deterministic
    order so sweeps are reproducible across runs, machines and
    shardings.  Every axis but the kernel is a knob of the option table
    ({!Twill.Options}), which supplies its spellings, values and
    range. *)

type t = {
  kernels : string list;  (** bundled CHStone benchmark names *)
  axes : (Twill.Options.knob * string list) list;
      (** one entry per {!knobs} element, in that order, holding the
          canonical spellings of the axis's values *)
}

(** One evaluated configuration: a kernel and the options its grid
    coordinates set (everything else at {!Twill.default_options}). *)
type point = { kernel : string; opts : Twill.options }

val knobs : Twill.Options.knob list
(** The option axes, outermost first: unroll, nstages, sw_frac,
    queue_depth, queue_latency, comm, backend, mem_banks. *)

val values : t -> Twill.Options.knob -> string list
(** The values swept on one axis. *)

val default : t
(** The committed-benchmark grid: 4 kernels x 2 unroll x 3 widths x
    5 depths x 5 latencies (comm off) = 600 points over 24
    extractions. *)

val npoints : t -> int

val points : t -> point list
(** Cartesian enumeration, kernels outermost / banks innermost. *)

val parse : ?base:t -> string -> (t, string) result
(** ["kernels=mips,sha;queue_latency=2,8,32"] — axes absent from the
    spec keep their [base] (default: {!default}) values.  An axis is
    [kernels] or any spelling of a {!knobs} entry; each value goes
    through the knob's parser, so unknown names and out-of-range values
    are rejected with the table's message.  Values containing commas
    (comm pass sets) join their parts with ["+"]
    (["comm=none,merge+size,all"]); every value is stored in its
    canonical spelling. *)

val to_spec : t -> string
(** Canonical spec string listing every axis; [parse (to_spec g)]
    re-reads [g] exactly. *)

val sample : seed:int -> int -> point list -> point list
(** Deterministic grid-order-preserving subset of size [n] (identity
    when [n] covers the list). *)

val fields : point -> (string * string) list
(** Each coordinate's field name and JSON literal, kernel first: the
    one rendering of a point, shared by [BENCH_dse.json] rows and
    twilld's dse responses. *)

val point_label : point -> string
(** The kernel followed by [axis=value] for every coordinate off its
    default. *)
