(** Parametric power model (milliwatts), shaped after thesis §6.3: the
    Microblaze is power-hungry mostly because of its PLLs (a large
    constant term burned whenever the core is clocked), while FPGA logic
    power scales with deployed LUTs and their switching activity — which
    is what makes Figure 6.1's ordering (pure HW < Twill < pure SW) fall
    out mechanistically. *)

val power :
  with_microblaze:bool ->
  mb_activity:float ->
  area:Area.t ->
  logic_activity:float ->
  float
(** Milliwatts of a deployed design.  [mb_activity] is the Microblaze
    busy fraction over the run (0 when no processor is instantiated);
    [logic_activity] likewise for the FPGA logic. *)
