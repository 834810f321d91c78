(* The metrics BENCHMARK.json defines.  The file is compiled in (the
   generated [Spec] module holds its text), so every name, unit,
   direction and bound that a run prints or the compare tool judges by
   comes from that one definition. *)

module Json = Twill_serve.Json

type direction = Lower | Higher

type t = {
  name : string;
  unit : string;
  better : direction;
  bound : float option;  (** end-to-end metrics only *)
}

let of_spec (key : string) : t list =
  match Json.list_field key (Json.of_string Spec.json) with
  | None -> failwith ("BENCHMARK.json: no " ^ key)
  | Some l ->
      List.map
        (fun m ->
          {
            name = Option.get (Json.str_field "name" m);
            unit = Option.get (Json.str_field "unit" m);
            better = (if Json.str_field "better" m = Some "higher" then Higher else Lower);
            bound = Json.float_field "bound" m;
          })
        l

let end_to_end = of_spec "end_to_end"
let per_layer = of_spec "per_layer"

let unit_of (name : string) : string =
  match List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer) with
  | Some m -> m.unit
  | None -> ""
