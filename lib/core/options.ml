(* The option table: every user-facing knob of {!Twill.options}, defined
   once.

   Each entry gives a knob's spellings, its exact printer and parser
   (the parser enforces the valid range), and its level — the earliest
   stage that reads it.  The twillc flags, the twilld request fields,
   the DSE grid axes and result rows, and both cache keys are derived
   from these entries; a surface only names which entries it exposes. *)

module Partition = Twill_dswp.Partition
module Pipeline = Twill_passes.Pipeline
module Schedule = Twill_hls.Schedule
module Comm = Twill_comm.Comm

type t = {
  partition : Partition.config;
  queue_depth : int;
  queue_latency : int;
  inline_aggressive : bool;
  inline_threshold : int;
  unroll : bool;
  (* one legal value each (Twill.sim_config rejects any other): kept as
     fields only because benchmark/layers.ml reads them *)
  resources : Schedule.resources;
  modulo : bool;
  fuel : int;
  backend : Schedule.backend;
  pipeline_break : string option;
  comm : Comm.config;
  mem_banks : int;
  check_memdep : bool;
}

let default =
  {
    partition = Partition.default_config;
    queue_depth = 8; (* the thesis runs everything with 8x32 queues *)
    queue_latency = 2;
    inline_aggressive = false;
    inline_threshold = 60;
    unroll = false;
    resources = Schedule.default_resources;
    modulo = true;
    fuel = 300_000_000;
    backend = Schedule.Fsm;
    pipeline_break = None;
    comm = Comm.none; (* seed behaviour: every pass off *)
    mem_banks = 1;
    check_memdep = false;
  }

(* --- value converters --------------------------------------------------- *)

type 'a conv = { show : 'a -> string; read : string -> ('a, string) result }

let int_in min : int conv =
  {
    show = string_of_int;
    read =
      (fun s ->
        match int_of_string_opt s with
        | None -> Error (Printf.sprintf "%S is not an integer" s)
        | Some i when i < min ->
            Error (Printf.sprintf "%d is out of range (valid: >= %d)" i min)
        | Some i -> Ok i);
  }

(* shortest decimal that reads back as the same float *)
let float_to_string (f : float) : string =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let float_in lo hi : float conv =
  {
    show = float_to_string;
    read =
      (fun s ->
        match float_of_string_opt s with
        | None -> Error (Printf.sprintf "%S is not a number" s)
        | Some f when not (f >= lo && f <= hi) ->
            Error
              (Printf.sprintf "%s is out of range (valid: %s..%s)" s
                 (float_to_string lo) (float_to_string hi))
        | Some f -> Ok f);
  }

let bool : bool conv =
  {
    show = string_of_bool;
    read =
      (fun s ->
        match bool_of_string_opt s with
        | Some b -> Ok b
        | None -> Error (Printf.sprintf "%S is not true or false" s));
  }

let of_assoc (type a) ~(what : string) (assoc : (string * a) list) (s : string)
    : (a, string) result =
  match List.assoc_opt s assoc with
  | Some v -> Ok v
  | None ->
      Error
        (Printf.sprintf "unknown %s %S (valid: %s)" what s
           (String.concat ", " (List.map fst assoc)))

let enum ~what (show : 'a -> string) (all : 'a list) : 'a conv =
  { show; read = of_assoc ~what (List.map (fun v -> (show v, v)) all) }

(* "none" stands for the absent value *)
let optional (c : 'a conv) : 'a option conv =
  {
    show = (function None -> "none" | Some v -> c.show v);
    read =
      (function "none" -> Ok None | s -> Result.map Option.some (c.read s));
  }

(* --- the table ------------------------------------------------------------ *)

type level = Compile | Extract | Sim
type wire = Int | Float | Bool | Str

type knob = {
  name : string;
  grid : string;
  aliases : string list;
  flag : string option;
  level : level;
  wire : wire;
  docv : string;
  doc : string;
  print : t -> string;
  parse : string -> t -> (t, string) result;
}

let knob (type a) ?grid ?(aliases = []) ?flag ?(docv = "N") ~name ~level ~wire
    ~doc (c : a conv) (get : t -> a) (set : a -> t -> t) : knob =
  {
    name;
    grid = Option.value grid ~default:name;
    aliases;
    flag;
    level;
    wire;
    docv;
    doc;
    print = (fun o -> c.show (get o));
    parse =
      (fun s o ->
        match c.read s with
        | Ok v -> Ok (set v o)
        | Error e -> Error (name ^ ": " ^ e));
  }

let with_partition f o = { o with partition = f o.partition }

let nstages =
  knob ~name:"nstages" ~aliases:[ "stages" ] ~flag:"stages" ~level:Extract
    ~wire:Int ~doc:"Pipeline stage count, the software master included."
    (int_in 1)
    (fun o -> o.partition.Partition.nstages)
    (fun v -> with_partition (fun p -> { p with Partition.nstages = v }))

let sw_frac =
  knob ~name:"sw_frac" ~aliases:[ "sw-frac" ] ~flag:"sw-frac" ~docv:"F"
    ~level:Extract ~wire:Float
    ~doc:"Targeted work share for the software master."
    (float_in 0.0 1.0)
    (fun o -> o.partition.Partition.sw_fraction)
    (fun v -> with_partition (fun p -> { p with Partition.sw_fraction = v }))

let unroll =
  knob ~name:"unroll" ~level:Compile ~wire:Bool
    ~doc:"LegUp-style full unrolling of small counted loops." bool
    (fun o -> o.unroll)
    (fun v o -> { o with unroll = v })

let inline_aggressive =
  knob ~name:"inline_aggressive" ~flag:"aggressive-inline" ~level:Compile
    ~wire:Bool ~doc:"Inline every call before DSWP." bool
    (fun o -> o.inline_aggressive)
    (fun v o -> { o with inline_aggressive = v })

let pipeline_break =
  knob ~name:"pipeline_break" ~flag:"break-pass" ~docv:"PASS" ~level:Compile
    ~wire:Str
    ~doc:
      "Plant a deliberate miscompilation after the named pipeline stage \
       (fault-injection demo; see $(b,--max-stage opt))."
    (optional (enum ~what:"pass" Fun.id Pipeline.stage_names))
    (fun o -> o.pipeline_break)
    (fun v o -> { o with pipeline_break = v })

let queue_depth =
  knob ~name:"queue_depth" ~aliases:[ "queue-depth"; "depth" ]
    ~flag:"queue-depth" ~level:Extract ~wire:Int ~doc:"Queue depth (slots)."
    (int_in 1)
    (fun o -> o.queue_depth)
    (fun v o -> { o with queue_depth = v })

let fuel =
  knob ~name:"fuel" ~level:Extract ~wire:Int
    ~doc:"Instruction budget of the profiling run and every simulation."
    (int_in 1)
    (fun o -> o.fuel)
    (fun v o -> { o with fuel = v })

let comm =
  knob ~name:"comm" ~aliases:[ "comms"; "comm_opt"; "comm-opt" ]
    ~flag:"comm-opt" ~docv:"PASSES" ~level:Extract ~wire:Str
    ~doc:
      "Communication-pattern optimizer passes (comma-separated subset of \
       $(b,licm),$(b,merge),$(b,size),$(b,burst), or $(b,all) or \
       $(b,none))."
    { show = Comm.show; read = Comm.parse }
    (fun o -> o.comm)
    (fun v o -> { o with comm = v })

let queue_latency =
  knob ~name:"queue_latency" ~aliases:[ "queue-latency"; "latency" ]
    ~flag:"queue-latency" ~level:Sim ~wire:Int
    ~doc:"Queue give->visible latency in cycles." (int_in 0)
    (fun o -> o.queue_latency)
    (fun v o -> { o with queue_latency = v })

let backend =
  knob ~name:"backend" ~aliases:[ "backends" ] ~flag:"backend"
    ~docv:"BACKEND" ~level:Sim ~wire:Str
    ~doc:
      "RTL lowering for the hardware partitions: $(b,fsm) (LegUp-style \
       monolithic FSM-with-datapath) or $(b,dataflow) (elastic stages with \
       valid/ready handshake channels)."
    (enum ~what:"backend" Schedule.backend_name Schedule.all_backends)
    (fun o -> o.backend)
    (fun v o -> { o with backend = v })

let mem_banks =
  knob ~name:"mem_banks" ~grid:"banks" ~aliases:[ "mem-banks" ]
    ~flag:"mem-banks" ~level:Sim ~wire:Int
    ~doc:
      "Shared-memory bank count.  Provably-disjoint arrays are partitioned \
       across $(docv) banks by the dependence oracle; hardware threads then \
       schedule with per-bank ordering chains (one schedule per function, \
       which rtsim times, the area model prices and the emitted RTL \
       thread runs), rtsim arbitrates one memory bus per bank, and the \
       emitted RTL instantiates a banked memory.  $(b,1) is the \
       single-port behaviour."
    (int_in 1)
    (fun o -> o.mem_banks)
    (fun v o -> { o with mem_banks = v })

let table =
  [
    unroll; inline_aggressive; pipeline_break; nstages; sw_frac; queue_depth;
    fuel; comm; queue_latency; backend; mem_banks;
  ]

let find (knobs : knob list) (spelling : string) : knob option =
  List.find_opt
    (fun k -> k.name = spelling || k.grid = spelling || List.mem spelling k.aliases)
    knobs

(* --- cache keys ----------------------------------------------------------- *)

let key ?(knobs = table) (o : t) : string =
  String.concat ";" (List.map (fun k -> k.name ^ "=" ^ k.print o) knobs)

(* The profile-guided comm passes simulate the unoptimized pipeline during
   extraction, so under them every Sim knob shapes the extracted design. *)
let extract_key (o : t) : string =
  if Comm.needs_profile o.comm then key o
  else key ~knobs:(List.filter (fun k -> k.level <> Sim) table) o
