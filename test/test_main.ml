let () =
  Alcotest.run "lemur"
    [
      ("util", Test_util.suite);
      ("lp", Test_lp.suite);
      ("nf", Test_nf.suite);
      ("classifier", Test_classifier.suite);
      ("spec", Test_spec.suite);
      ("slo", Test_slo.suite);
      ("platform", Test_platform.suite);
      ("profiler", Test_profiler.suite);
      ("p4", Test_p4.suite);
      ("ebpf", Test_ebpf.suite);
      ("bess", Test_bess.suite);
      ("openflow", Test_openflow.suite);
      ("placer", Test_placer.suite);
      ("alloc", Test_alloc.suite);
      ("milp", Test_milp.suite);
      ("dynamics", Test_dynamics.suite);
      ("codegen", Test_codegen.suite);
      ("dataplane", Test_dataplane.suite);
      ("check", Test_check.suite);
      ("fabric", Test_fabric.suite);
      ("runtime", Test_runtime.suite);
      ("telemetry", Test_telemetry.suite);
      ("core", Test_core.suite);
    ]
