(* Pass bisection: given a program whose optimised IR diverges from its
   unoptimised IR, find the first pipeline stage that introduces the
   divergence.

   The pass pipeline is an ordered list of named stages
   ({!Twill.Pipeline.stage_names}) and {!Oracle.walk} observes the
   program after every prefix of it ([Obs_opt (k, _)]), so the search
   compares each prefix against the raw-IR baseline and reports the
   first stage whose output misbehaves.  The scan is linear rather than
   a binary search on purpose: a later stage may mask or transform an
   earlier divergence, so "first bad prefix" is only well-defined by
   checking every prefix in order — and with eight stages the cost is
   irrelevant next to a single rtsim run. *)

open Twill

type report = {
  bad_pass : string;  (** first stage whose prefix diverges *)
  bad_index : int;  (** 1-based prefix length of that stage *)
  baseline : Oracle.observation;  (** raw-IR behaviour *)
  broken : Oracle.observation;  (** behaviour after the bad prefix *)
}

(* [first_bad_pass ?opts src] assumes raw IR is good and the full
   pipeline (or some prefix) is bad; [None] means no pipeline stage
   changes the observable behaviour — the divergence, if any, is
   introduced downstream (partitioning, RTL) or does not exist. *)
let first_bad_pass ?(opts = default_options) (src : string) : report option =
  let prefixes =
    List.init Pipeline.nstages (fun k -> Oracle.Obs_opt (k + 1, Interp.Decoded))
  in
  match Oracle.walk ~opts (Oracle.Obs_ir Interp.Decoded :: prefixes) src () with
  | Seq.Cons ((_, Oracle.Obs_ok baseline), rest) ->
      Seq.find_map
        (function
          | Oracle.Obs_opt (k, _), Oracle.Obs_ok o
            when not (Oracle.obs_equal baseline o) ->
              Some
                {
                  bad_pass = List.nth Pipeline.stage_names (k - 1);
                  bad_index = k;
                  baseline;
                  broken = o;
                }
          | _ -> None)
        rest
  | _ -> None

let report_to_string (r : report) =
  Printf.sprintf "pass %d/%d (%s): %s -> %s" r.bad_index Pipeline.nstages
    r.bad_pass
    (Oracle.observation_to_string r.baseline)
    (Oracle.observation_to_string r.broken)
