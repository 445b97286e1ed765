let () =
  Alcotest.run "coign"
    [
      ("util", Test_util.suite);
      ("idl", Test_idl.suite);
      ("com", Test_com.suite);
      ("image", Test_image.suite);
      ("netsim", Test_netsim.suite);
      ("flowgraph", Test_flowgraph.suite);
      ("classifier", Test_classifier.suite);
      ("core", Test_core.suite);
      ("analysis", Test_analysis.suite);
      ("session", Test_session.suite);
      ("rte", Test_rte.suite);
      ("fault", Test_fault.suite);
      ("resilience", Test_resilience.suite);
      ("fleet", Test_fleet.suite);
      ("adps", Test_adps.suite);
      ("apps", Test_apps.suite);
      ("sim", Test_sim.suite);
      ("loadsim", Test_loadsim.suite);
      ("watch", Test_watch.suite);
      ("extensions", Test_extensions.suite);
      ("obs", Test_obs.suite);
      ("lint", Test_lint.suite);
      ("verify", Test_verify.suite);
      ("trace", Test_trace.suite);
      ("cli", Test_cli.suite);
      ("fuzz", Test_fuzz.suite);
    ]
