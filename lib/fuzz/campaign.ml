(* Campaign driver: generate N cases from a seed, run each through the
   differential oracle (fanning out across cores with {!Twill.Par}),
   shrink and bisect every divergence, and persist minimized repros as
   a replayable corpus.

   A campaign's options are the option table's knobs in [knobs]: the
   planted pass break, the backend whose schedules rtsim replays (the
   RTL rank co-simulates every lowering regardless) and the bank count.
   A repro records each of them that differs from the default and
   replays at it.

   Everything observable about a campaign is a pure function of
   (seed, cases, limit, options): each case derives its own RNG from
   [Gen.case_state], [Par.map] preserves input order, and the summary
   and corpus contain no timestamps — so two runs of the same campaign
   produce byte-identical corpora, which the test-bench checks. *)

open Twill

type repro = {
  r_case : int;  (** case index within the campaign *)
  r_seed : int;
  r_limit : Oracle.limit;
  r_stage : string;  (** diverging stage on the original program *)
  r_original_size : int;  (** node count before shrinking *)
  r_shrunk_size : int;
  r_shrunk_src : string;  (** minimized, still-diverging source *)
  r_divergence : Oracle.divergence;  (** divergence of the shrunk program *)
  r_first_bad_pass : string option;  (** from {!Bisect}, when applicable *)
  r_shrink_tests : int;  (** predicate evaluations the shrinker spent *)
}

type case_outcome =
  | C_agree
  | C_skip of string  (** the reference gave no verdict *)
  | C_diverge of repro

type summary = {
  s_seed : int;
  s_cases : int;
  s_limit : Oracle.limit;
  s_agreed : int;
  s_skipped : (int * string) list;  (** case index, reason *)
  s_repros : repro list;  (** in case order *)
  s_stage_skips : (string * int) list;  (** per-stage skip tally, sorted *)
  s_stage_errors : (string * int) list;
  s_traps : (int * string * string) list;
      (** case index, stage, alias-checker message; in case order *)
}

let tally (assoc : (string * int) list) (key : string) =
  match List.assoc_opt key assoc with
  | Some n -> (key, n + 1) :: List.remove_assoc key assoc
  | None -> (key, 1) :: assoc

(* the shrinker's predicate-evaluation budget per divergence *)
let shrink_tests = 3000

let run_case ~opts ~limit ~seed index :
    case_outcome * Oracle.result =
  let prog = Gen.program ~seed ~index in
  let src = Twill_minic.Ast_pp.program_to_string prog in
  let res = Oracle.check ~opts ~limit src in
  let outcome =
    match res.Oracle.verdict with
    | Oracle.Agree -> C_agree
    | Oracle.Skipped r -> C_skip r
    | Oracle.Diverge d ->
        let pred p =
          Oracle.diverges ~opts ~limit (Twill_minic.Ast_pp.program_to_string p)
          <> None
        in
        let shrunk, sstats = Shrink.shrink ~max_tests:shrink_tests ~pred prog in
        let shrunk_src = Twill_minic.Ast_pp.program_to_string shrunk in
        (* the shrinker only ever keeps still-diverging candidates, so
           this re-check is total; it refreshes the divergence details
           for the minimized program *)
        let d' =
          match Oracle.diverges ~opts ~limit shrunk_src with
          | Some d' -> d'
          | None -> d
        in
        let fbp =
          Option.map
            (fun (r : Bisect.report) -> r.Bisect.bad_pass)
            (Bisect.first_bad_pass ~opts shrunk_src)
        in
        C_diverge
          {
            r_case = index;
            r_seed = seed;
            r_limit = limit;
            r_stage = d.Oracle.div_stage;
            r_original_size = sstats.Shrink.size_before;
            r_shrunk_size = sstats.Shrink.size_after;
            r_shrunk_src = shrunk_src;
            r_divergence = d';
            r_first_bad_pass = fbp;
            r_shrink_tests = sstats.Shrink.tests;
          }
  in
  (outcome, res)

let run ?(opts = default_options) ?(limit = Oracle.L_vsim) ~seed ~cases () :
    summary =
  let indices = List.init cases (fun i -> i) in
  let results = Par.map (fun i -> run_case ~opts ~limit ~seed i) indices in
  let agreed = ref 0 in
  let skipped = ref [] in
  let repros = ref [] in
  let stage_skips = ref [] in
  let stage_errors = ref [] in
  let traps = ref [] in
  List.iteri
    (fun i (outcome, (res : Oracle.result)) ->
      List.iter
        (fun (st, _) -> stage_skips := tally !stage_skips st)
        res.Oracle.skips;
      List.iter
        (fun (st, _) -> stage_errors := tally !stage_errors st)
        res.Oracle.errors;
      List.iter
        (fun (st, msg) -> traps := (i, st, msg) :: !traps)
        res.Oracle.traps;
      match outcome with
      | C_agree -> if res.Oracle.traps = [] then incr agreed
      | C_skip r -> skipped := (i, r) :: !skipped
      | C_diverge r -> repros := r :: !repros)
    results;
  let sorted l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  {
    s_seed = seed;
    s_cases = cases;
    s_limit = limit;
    s_agreed = !agreed;
    s_skipped = List.rev !skipped;
    s_repros = List.rev !repros;
    s_stage_skips = sorted !stage_skips;
    s_stage_errors = sorted !stage_errors;
    s_traps = List.rev !traps;
  }

(* What fails a strict campaign: a divergence or an alias-checker trap. *)
let failed (s : summary) = s.s_repros <> [] || s.s_traps <> []

(* --- reporting ---------------------------------------------------------- *)

let summary_to_string (s : summary) : string =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "fuzz: seed=%d cases=%d max-stage=%s\n" s.s_seed s.s_cases
       (Oracle.limit_to_string s.s_limit));
  Buffer.add_string b
    (Printf.sprintf "  agreed %d, skipped %d, diverged %d\n" s.s_agreed
       (List.length s.s_skipped)
       (List.length s.s_repros));
  if s.s_stage_skips <> [] then
    Buffer.add_string b
      (Printf.sprintf "  stage skips: %s\n"
         (String.concat ", "
            (List.map
               (fun (st, n) -> Printf.sprintf "%s=%d" st n)
               s.s_stage_skips)));
  if s.s_stage_errors <> [] then
    Buffer.add_string b
      (Printf.sprintf "  stage errors: %s\n"
         (String.concat ", "
            (List.map
               (fun (st, n) -> Printf.sprintf "%s=%d" st n)
               s.s_stage_errors)));
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "  case %d: DIVERGES at %s (%s), shrunk %d -> %d nodes%s\n"
           r.r_case r.r_stage
           (Oracle.divergence_to_string r.r_divergence)
           r.r_original_size r.r_shrunk_size
           (match r.r_first_bad_pass with
           | Some p -> Printf.sprintf ", first bad pass: %s" p
           | None -> "")))
    s.s_repros;
  List.iter
    (fun (case, stage, msg) ->
      Buffer.add_string b
        (Printf.sprintf "  case %d: TRAPS at %s (%s)\n" case stage msg))
    s.s_traps;
  Buffer.contents b

(* --- corpus persistence ------------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ())
  end

(* The option-table knobs a campaign takes ([twillc fuzz] exposes
   exactly these) and a repro header records, as [flag=value] through
   the table's printer and only where they differ from the default, so
   a corpus found at default options records none of them. *)
let knobs = Options.[ pipeline_break; backend; mem_banks ]

let header_key (k : Options.knob) = Option.get k.Options.flag

let repro_filename (r : repro) =
  Printf.sprintf "repro-%d-%03d.c" r.r_seed r.r_case

(* A repro file is a valid mini-C program: the metadata rides in [//]
   comments, which the lexer skips, so the file body feeds straight
   back into the oracle on replay. *)
let repro_to_string ?(opts = default_options) (r : repro) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "// twill-fuzz repro seed=%d case=%d limit=%s\n" r.r_seed
       r.r_case
       (Oracle.limit_to_string r.r_limit));
  Buffer.add_string b
    (Printf.sprintf "// stage=%s shrunk=%d/%d nodes\n" r.r_stage r.r_shrunk_size
       r.r_original_size);
  Buffer.add_string b
    (Printf.sprintf "// %s\n" (Oracle.divergence_to_string r.r_divergence));
  (match r.r_first_bad_pass with
  | Some p -> Buffer.add_string b (Printf.sprintf "// first-bad-pass=%s\n" p)
  | None -> ());
  List.iter
    (fun (k : Options.knob) ->
      let v = k.Options.print opts in
      if v <> k.Options.print default_options then
        Buffer.add_string b (Printf.sprintf "// %s=%s\n" (header_key k) v))
    knobs;
  Buffer.add_char b '\n';
  Buffer.add_string b r.r_shrunk_src;
  Buffer.contents b

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

(* Writes minimized repros plus a MANIFEST into [dir]; returns the file
   names written (MANIFEST first).  Deterministic: contents depend only
   on the summary and the campaign's [opts]. *)
let write_corpus ?opts ~dir (s : summary) : string list =
  mkdir_p dir;
  let files =
    List.map
      (fun r ->
        let name = repro_filename r in
        write_file (Filename.concat dir name)
          (repro_to_string ?opts r);
        name)
      s.s_repros
  in
  let manifest = Buffer.create 256 in
  Buffer.add_string manifest
    (Printf.sprintf "# twill-fuzz corpus seed=%d cases=%d max-stage=%s\n"
       s.s_seed s.s_cases
       (Oracle.limit_to_string s.s_limit));
  Buffer.add_string manifest
    (Printf.sprintf "# agreed=%d skipped=%d diverged=%d\n" s.s_agreed
       (List.length s.s_skipped)
       (List.length s.s_repros));
  List.iter2
    (fun r name ->
      Buffer.add_string manifest
        (Printf.sprintf "%s stage=%s first-bad-pass=%s\n" name r.r_stage
           (Option.value r.r_first_bad_pass ~default:"-")))
    s.s_repros files;
  write_file (Filename.concat dir "MANIFEST") (Buffer.contents manifest);
  "MANIFEST" :: files

(* --- corpus replay ------------------------------------------------------ *)

type replay_result = {
  rp_file : string;
  rp_still_diverges : bool;
  rp_detail : string;
}

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Pulls [key=value] out of the repro's comment header. *)
let header_field src key =
  let prefix = key ^ "=" in
  String.split_on_char '\n' src
  |> List.filter_map (fun line ->
         if String.length line >= 2 && String.sub line 0 2 = "//" then
           String.split_on_char ' ' line
           |> List.find_map (fun tok ->
                  let pl = String.length prefix in
                  if
                    String.length tok > pl && String.sub tok 0 pl = prefix
                  then Some (String.sub tok pl (String.length tok - pl))
                  else None)
         else None)
  |> function
  | v :: _ -> Some v
  | [] -> None

(* The options a repro was found at: each of [knobs] from its header
   line (the default where there is none), with the alias checker armed
   above one bank as in the campaign. *)
let options_of_repro (src : string) : options =
  List.fold_left
    (fun o (k : Options.knob) ->
      match header_field src (header_key k) with
      | None -> o
      | Some v -> Result.fold ~ok:Fun.id ~error:failwith (k.Options.parse v o))
    default_options knobs
  |> arm_checker

(* Re-runs every repro of a corpus directory through the oracle at its
   recorded limit and options.  A healthy corpus still diverges
   everywhere; a fixed bug shows up as [rp_still_diverges = false]. *)
let replay ~dir () : replay_result list =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".c")
    |> List.sort compare
  in
  List.map
    (fun f ->
      let src = read_file (Filename.concat dir f) in
      let limit =
        match header_field src "limit" with
        | Some l -> Option.value (Oracle.limit_of_string l) ~default:Oracle.L_vsim
        | None -> Oracle.L_vsim
      in
      match Oracle.diverges ~opts:(options_of_repro src) ~limit src with
      | Some d ->
          {
            rp_file = f;
            rp_still_diverges = true;
            rp_detail = Oracle.divergence_to_string d;
          }
      | None ->
          {
            rp_file = f;
            rp_still_diverges = false;
            rp_detail = "no divergence (agrees or skipped)";
          })
    files
