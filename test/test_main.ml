let () =
  Alcotest.run "twill"
    (List.concat [
         Test_ir.suites;
         Test_memdep.suites;
         Test_diff.suites;
         Test_minic.suites;
         Test_passes.suites;
         Test_pdg.suites;
         Test_dswp.suites;
         Test_hls.suites;
         Test_rtsim.suites;
         Test_chstone.suites;
         Test_cgen.suites;
         Test_vgen.suites;
         Test_vsim.suites;
         Test_velastic.suites;
         Test_fuzz.suites;
         Test_dse.suites;
         Test_comm.suites;
         Test_serve.suites;
       ])
