(* The repository benchmark.

     main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
       one run of one workload; a readable table on stderr and, as the
       last line of stdout, the result object (end-to-end metrics
       untraced, per-layer metrics traced)
     main.exe [--seed N] [--seconds S] [--runs K] [--out DIR] [--trace-out FILE]
       every workload, each in a fresh process: untraced, then traced;
       one JSON document on stdout
     main.exe compare PARENT_DIR CHANGE_DIR
       judge a change from two --out directories *)

open Cmdliner
open Twill_benchmark

let workload_conv =
  let parse s =
    match Workload.of_name s with
    | Some w -> Ok w
    | None ->
        Error
          (`Msg
            ("unknown workload; one of "
            ^ String.concat ", " (List.map Workload.name Workload.all)))
  in
  Arg.conv (parse, fun ppf w -> Format.pp_print_string ppf (Workload.name w))

let workload =
  Arg.(value & opt (some workload_conv) None & info [ "workload" ] ~docv:"NAME")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Input seed.")

let seconds =
  Arg.(value & opt float 10. & info [ "seconds" ] ~doc:"Measured time per run.")

let trace =
  Arg.(
    value
    & opt (enum [ ("0", false); ("1", true) ]) false
    & info [ "trace" ] ~docv:"0|1"
        ~doc:"1: a traced run reporting the per-layer metrics.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Write the traced run's spans as Chrome trace-event JSON.")

let runs = Arg.(value & opt int 1 & info [ "runs" ] ~doc:"Runs per workload (seeds N, N+1, ...).")

let out =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"DIR" ~doc:"Keep every run's result object in DIR.")

let setup_probe = Arg.(value & flag & info [ "setup-probe" ] ~doc:"(internal)")

let one w ~seed ~seconds ~trace ~trace_out =
  let r = Bench.run ?trace_out w ~seed ~seconds ~trace in
  Bench.print_table stderr w r;
  print_endline (Bench.to_json r)

(* Runs one workload in a fresh copy of this program and returns its
   result line. *)
let child w ~seed ~seconds ~trace ~trace_out =
  let exe = Sys.executable_name in
  let args =
    [ exe; "--workload"; Workload.name w; "--seed"; string_of_int seed;
      "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") ]
    @ match trace_out with Some f -> [ "--trace-out"; f ] | None -> []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let lines = In_channel.input_lines (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  match (Unix.waitpid [] pid, List.rev lines) with
  | (_, Unix.WEXITED 0), last :: _ -> last
  | _ -> failwith (Workload.name w ^ ": run failed")

let all ~seed ~seconds ~runs ~out ~trace_out =
  Option.iter
    (fun d -> try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    out;
  let results =
    List.concat_map
      (fun k ->
        let seed = seed + k in
        List.concat_map
          (fun w ->
            List.map
              (fun trace ->
                let trace_out =
                  if trace then
                    Option.map
                      (fun f ->
                        Printf.sprintf "%s.%s.s%d.json" (Filename.remove_extension f)
                          (Workload.name w) seed)
                      trace_out
                  else None
                in
                let line = child w ~seed ~seconds ~trace ~trace_out in
                Option.iter
                  (fun d ->
                    Out_channel.with_open_bin
                      (Filename.concat d
                         (Printf.sprintf "%s.t%d.s%d.json" (Workload.name w)
                            (if trace then 1 else 0) seed))
                      (fun oc -> output_string oc (line ^ "\n")))
                  out;
                Printf.sprintf {|{"workload": "%s", "seed": %d, "trace": %d, "result": %s}|}
                  (Workload.name w) seed (if trace then 1 else 0) line)
              [ false; true ])
          Workload.all)
      (List.init runs Fun.id)
  in
  print_endline ("{\"runs\": [\n" ^ String.concat ",\n" results ^ "\n]}")

let main workload seed seconds trace trace_out runs out setup_probe =
  match (workload, setup_probe) with
  | Some w, true -> Bench.setup_probe w ~seed
  | Some w, false -> one w ~seed ~seconds ~trace ~trace_out
  | None, _ -> all ~seed ~seconds ~runs ~out ~trace_out

let run_cmd =
  Term.(const main $ workload $ seed $ seconds $ trace $ trace_out $ runs $ out $ setup_probe)

let compare_cmd =
  let dir n = Arg.(required & pos n (some dir) None & info [] ~docv:"DIR") in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Judge CHANGE_DIR's runs against PARENT_DIR's, with BENCHMARK.json's bounds")
    Term.(const (fun p c -> if Compare.run p c then Stdlib.exit 1) $ dir 0 $ dir 1)

let () =
  exit
    (Cmd.eval
       (Cmd.group ~default:run_cmd
          (Cmd.info "benchmark" ~doc:"Twill repository benchmark")
          [ compare_cmd ]))
