(* Parametric power model (milliwatts), shaped after the thesis's §6.3
   findings: the Microblaze is power-hungry mostly because of its PLLs
   (a large constant dynamic term), while FPGA logic power scales with
   the LUTs deployed and their activity. *)

type params = {
  mb_static_mw : float;
  mb_pll_mw : float; (* PLL overhead, burned whenever the core is clocked *)
  mb_dynamic_mw : float; (* per unit activity *)
  lut_static_uw : float; (* per LUT *)
  lut_dynamic_uw : float; (* per LUT at activity 1.0 *)
  dsp_mw : float;
  bram_mw : float;
}

let default =
  {
    mb_static_mw = 60.0;
    mb_pll_mw = 210.0;
    mb_dynamic_mw = 130.0;
    lut_static_uw = 4.0;
    lut_dynamic_uw = 9.0;
    dsp_mw = 2.0;
    bram_mw = 3.0;
  }

(* Power of a deployed design.  [mb_activity] is the Microblaze busy
   fraction over the run (0 when no processor is instantiated);
   [logic_activity] likewise for the FPGA logic. *)
let power ~(with_microblaze : bool) ~(mb_activity : float)
    ~(area : Area.t) ~(logic_activity : float) : float =
  let p = default in
  let mb =
    if with_microblaze then
      p.mb_static_mw +. p.mb_pll_mw +. (p.mb_dynamic_mw *. mb_activity)
    else 0.0
  in
  let logic =
    (float_of_int area.Area.luts
    *. (p.lut_static_uw +. (p.lut_dynamic_uw *. logic_activity)))
    /. 1000.0
    +. (float_of_int area.Area.dsps *. p.dsp_mw)
    +. (float_of_int area.Area.brams *. p.bram_mw)
  in
  mb +. logic
