let () =
  Alcotest.run "vliw-repro"
    [
      ("ir", Test_ir.suite);
      ("solver", Test_solver.suite);
      ("arch", Test_arch.suite);
      ("sched", Test_sched.suite);
      ("core", Test_core.suite);
      ("sim", Test_sim.suite);
      ("workloads", Test_workloads.suite);
      ("report", Test_report.suite);
      ("regpressure", Test_regpressure.suite);
      ("disambiguation", Test_disambiguation.suite);
      ("parallel", Test_parallel.suite);
      ("experiments", Test_experiments.suite);
      ("dse", Test_dse.suite);
      ("analysis", Test_analysis.suite);
      ("oracle", Test_oracle.suite);
      ("locality", Test_locality.suite);
      ("service", Test_service.suite);
      ("concsan", Test_concsan.suite);
      ("figures", Test_figures.suite);
      ("properties", Test_props.suite);
    ]
