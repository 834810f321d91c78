(* Design-space grid: the axes of the Chapter-6 sensitivity studies as
   one first-class value.  A grid is the cartesian product of its
   kernels (bundled CHStone benchmarks) and one value list per option
   axis, the table knobs in [knobs]:

     unroll, nstages, sw_frac, queue_depth, queue_latency, comm,
     backend, banks

   enumerated in exactly that nesting order, kernels outermost and banks
   innermost, so a point list is deterministic and stable across runs,
   machines and shardings.  A point is a kernel plus the options record
   its coordinates set; each knob's level in the option table says which
   points share a compilation or an extraction (see dse.ml). *)

module O = Twill.Options

type t = { kernels : string list; axes : (O.knob * string list) list }
type point = { kernel : string; opts : Twill.options }

let knobs =
  O.
    [
      unroll; nstages; sw_frac; queue_depth; queue_latency; comm; backend;
      mem_banks;
    ]

let values (g : t) (k : O.knob) : string list =
  snd (List.find (fun ((k' : O.knob), _) -> k'.name = k.name) g.axes)

let set (k : O.knob) (v : string) (o : Twill.options) : Twill.options =
  match k.parse v o with Ok o -> o | Error e -> invalid_arg ("grid: " ^ e)

let npoints (g : t) : int =
  List.fold_left
    (fun n (_, vs) -> n * List.length vs)
    (List.length g.kernels) g.axes

let points (g : t) : point list =
  let opts =
    List.fold_left
      (fun acc (k, vs) ->
        List.concat_map (fun o -> List.map (fun v -> set k v o) vs) acc)
      [ Twill.default_options ] g.axes
  in
  List.concat_map (fun kernel -> List.map (fun opts -> { kernel; opts }) opts) g.kernels

(* --- spec strings -------------------------------------------------------- *)

(* "kernels=mips,sha;nstages=2,3;queue_latency=2,8,32" — unnamed axes
   keep their base values, so a spec only says what it sweeps.  ","
   separates axis values, so a value's own commas (comm pass sets) are
   written "+". *)

let to_spec (g : t) : string =
  let axis name vals = name ^ "=" ^ String.concat "," vals in
  String.concat ";"
    (axis "kernels" g.kernels
    :: List.map
         (fun ((k : O.knob), vs) ->
           axis k.grid
             (List.map (String.map (fun c -> if c = ',' then '+' else c)) vs))
         g.axes)

let split_commas (s : string) : string list =
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun x -> x <> "")

let parse_axis (name : string) (parse1 : string -> (string, string) result)
    (raw : string) : (string list, string) result =
  let rec go acc = function
    | [] ->
        if acc = [] then Error (Printf.sprintf "axis %s: empty" name)
        else Ok (List.rev acc)
    | v :: rest -> (
        match parse1 v with
        | Ok x -> go (x :: acc) rest
        | Error e -> Error (Printf.sprintf "axis %s: %s" name e))
  in
  go [] (split_commas raw)

(* a value in its canonical spelling: parsed, then printed back *)
let canonical (k : O.knob) (s : string) : (string, string) result =
  let s = String.map (fun c -> if c = '+' then ',' else c) s in
  Result.map k.print (k.parse s Twill.default_options)

let parse_with ~(base : t) (spec : string) : (t, string) result =
  let ( let* ) = Result.bind in
  let entries =
    String.split_on_char ';' spec
    |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  List.fold_left
    (fun acc entry ->
      let* g = acc in
      match String.index_opt entry '=' with
      | None -> Error (Printf.sprintf "bad axis %S (want name=v1,v2,...)" entry)
      | Some i -> (
          let name = String.trim (String.sub entry 0 i) in
          let raw = String.sub entry (i + 1) (String.length entry - i - 1) in
          match (name, O.find knobs name) with
          | ("kernels" | "kernel"), _ ->
              let* ks = parse_axis "kernels" Result.ok raw in
              Ok { g with kernels = ks }
          | _, Some k ->
              let* vs = parse_axis k.grid (canonical k) raw in
              Ok
                {
                  g with
                  axes =
                    List.map
                      (fun ((k' : O.knob), old) ->
                        (k', if k'.name = k.name then vs else old))
                      g.axes;
                }
          | _, None -> Error (Printf.sprintf "unknown axis %S" name)))
    (Ok base) entries

(* The committed-benchmark grid (BENCH_dse.json): four kernels, both
   compile variants, three pipeline widths, the thesis's queue depth and
   latency sweeps — 600 points over 24 extractions and 8 compiles.  Axes
   it does not name hold the default option value. *)
let default =
  let base =
    {
      kernels = [];
      axes = List.map (fun (k : O.knob) -> (k, [ k.print Twill.default_options ])) knobs;
    }
  in
  match
    parse_with ~base
      "kernels=mips,sha,gsm,motion;unroll=false,true;nstages=2,3,4;\
       queue_depth=1,2,4,8,32;queue_latency=2,4,8,32,128"
  with
  | Ok g -> g
  | Error e -> failwith e

let parse ?(base = default) spec = parse_with ~base spec

(* --- deterministic sampling ---------------------------------------------- *)

(* Fisher-Yates over the index space with an explicit PRNG state, then
   re-sorted, so a sampled grid is a grid-order-preserving subset that
   depends only on (seed, n, length). *)
let sample ~seed n (ps : point list) : point list =
  let len = List.length ps in
  if n >= len then ps
  else begin
    let st = Random.State.make [| 0x75EED; seed |] in
    let idx = Array.init len (fun i -> i) in
    for i = 0 to n - 1 do
      let j = i + Random.State.int st (len - i) in
      let t = idx.(i) in
      idx.(i) <- idx.(j);
      idx.(j) <- t
    done;
    let keep = Array.sub idx 0 n in
    Array.sort compare keep;
    let arr = Array.of_list ps in
    Array.to_list (Array.map (fun i -> arr.(i)) keep)
  end

(* --- rendering ------------------------------------------------------------ *)

(* (field, JSON literal) per coordinate, kernel first *)
let fields (p : point) : (string * string) list =
  ("kernel", Printf.sprintf "%S" p.kernel)
  :: List.map
       (fun (k : O.knob) ->
         let v = k.print p.opts in
         (k.grid, if k.wire = O.Str then Printf.sprintf "%S" v else v))
       knobs

(* the kernel plus every coordinate off its default value *)
let point_label (p : point) : string =
  String.concat " "
    (p.kernel
    :: List.filter_map
         (fun (k : O.knob) ->
           let v = k.print p.opts in
           if v = k.print Twill.default_options then None
           else Some (k.grid ^ "=" ^ v))
         knobs)
