(* [compare PARENT_DIR CHANGE_DIR]: the rules for judging a change from
   two sets of benchmark runs (choosing-metrics guide, sections 5 and 8),
   applied to every (metric, workload) pair with the bounds BENCHMARK.json
   fixes.  A run directory holds one result object per file, named
   <workload>.t<trace>.s<seed>.json; runs of the two sides pair up by
   workload, trace flag and seed. *)

module Json = Twill_serve.Json
open Metric

type verdict = Improved | Regressed | Unchanged | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

let read_file path = In_channel.with_open_bin path In_channel.input_all

type run = {
  workload : string;
  trace : bool;
  seed : int;
  failed : int;
  metrics : (string * float) list;
}

let parse_name (file : string) : (string * bool * int) option =
  match String.split_on_char '.' file with
  | [ w; t; s; "json" ]
    when (t = "t0" || t = "t1") && String.length s > 1 && s.[0] = 's' ->
      Option.map
        (fun seed -> (w, t = "t1", seed))
        (int_of_string_opt (String.sub s 1 (String.length s - 1)))
  | _ -> None

let read_runs (dir : string) : run list =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun file ->
         Option.map
           (fun (workload, trace, seed) ->
             let j = Json.of_string (String.trim (read_file (Filename.concat dir file))) in
             let metrics =
               match Json.find "metrics" j with
               | Some (Json.Obj kvs) ->
                   List.filter_map
                     (fun (k, v) -> Option.map (fun x -> (k, x)) (Json.float_field "value" v))
                     kvs
               | _ -> []
             in
             let failed = Option.value (Json.int_field "failed" j) ~default:0 in
             { workload; trace; seed; failed; metrics })
           (parse_name file))

let better_than d a b = match d with Lower -> a < b | Higher -> a > b

(* [pairs] are (parent, change) readings of one metric on runs with the
   same seed.  A gain does not count when the change failed more ops. *)
let judge ~(better : direction) ~(bound : float) ~more_failures
    (pairs : (float * float) list) : verdict =
  let parent = List.map fst pairs and change = List.map snd pairs in
  let mp = Stats.median parent and mc = Stats.median change in
  let iqr =
    if List.length parent < 2 then 0.
    else
      let q1, _, q3 = Stats.quartiles parent in
      q3 -. q1
  in
  let spread = if mp = 0. then 0. else iqr /. Float.abs mp in
  let wins = List.length (List.filter (fun (p, c) -> better_than better c p) pairs) in
  let win_rate = float_of_int wins /. float_of_int (List.length pairs) in
  let all_better =
    List.for_all (fun c -> List.for_all (fun p -> better_than better c p) parent) change
  in
  let worse_by =
    if mp = 0. then 0.
    else match better with Lower -> (mc -. mp) /. Float.abs mp | Higher -> (mp -. mc) /. Float.abs mp
  in
  (* a median worse by more than the bound is a regression however noisy
     the parent; a wide spread only keeps "unchanged" from being claimed *)
  if
    (not more_failures) && win_rate >= 0.9 && better_than better mc mp
    && Float.abs (mc -. mp) > iqr
  then Improved
  else if worse_by > bound then Regressed
  else if spread > bound && not all_better then Unresolved
  else Unchanged

let summary xs =
  if List.length xs < 2 then Printf.sprintf "%.6g" (Stats.median xs)
  else
    let q1, _, q3 = Stats.quartiles xs in
    Printf.sprintf "%.6g [%.6g, %.6g]" (Stats.median xs) q1 q3

(* Prints one row per (workload, metric) and returns whether any
   end-to-end pair regressed. *)
let run (parent_dir : string) (change_dir : string) : bool =
  let parent = read_runs parent_dir and change = read_runs change_dir in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) (parent @ change))
  in
  let regressed = ref false in
  let failed side w =
    List.fold_left (fun n r -> if r.workload = w then n + r.failed else n) 0 side
  in
  let more_failures w = failed change w > failed parent w in
  List.iter
    (fun w ->
      if more_failures w then
        Printf.printf "%s: the change failed %d ops, the parent %d\n" w
          (failed change w) (failed parent w))
    workloads;
  let table ~trace (metrics : Metric.t list) =
    List.iter
      (fun w ->
        let more_failures = more_failures w in
        List.iter
          (fun m ->
            let pairs =
              List.filter_map
                (fun p ->
                  if p.workload <> w || p.trace <> trace then None
                  else
                    match
                      List.find_opt
                        (fun c -> c.workload = w && c.trace = trace && c.seed = p.seed)
                        change
                    with
                    | None -> None
                    | Some c -> (
                        match
                          (List.assoc_opt m.name p.metrics, List.assoc_opt m.name c.metrics)
                        with
                        | Some a, Some b -> Some (a, b)
                        | _ -> None))
                parent
            in
            if pairs <> [] then begin
              let pm = Stats.median (List.map fst pairs)
              and cm = Stats.median (List.map snd pairs) in
              let delta = if pm = 0. then 0. else 100. *. (cm -. pm) /. Float.abs pm in
              let wins =
                List.length (List.filter (fun (p, c) -> better_than m.better c p) pairs)
              in
              let verdict =
                match m.bound with
                | None -> ""
                | Some bound ->
                    let v = judge ~better:m.better ~bound ~more_failures pairs in
                    if v = Regressed then regressed := true;
                    Printf.sprintf "  bound %.0f%%  %s" (100. *. bound) (verdict_name v)
              in
              Printf.printf "%-14s %-26s %-5s parent %s  change %s  %+.2f%%  wins %d/%d%s\n" w
                m.name m.unit
                (summary (List.map fst pairs))
                (summary (List.map snd pairs))
                delta wins (List.length pairs) verdict
            end)
          metrics)
      workloads
  in
  print_endline "# end to end (untraced runs)";
  table ~trace:false end_to_end;
  print_endline "# per layer (traced runs)";
  table ~trace:true per_layer;
  !regressed
