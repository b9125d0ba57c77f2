(* The benchmark's metric catalogue: (name, unit).  BENCHMARK.json lists
   the same names; an untraced run reports every [end_to_end] metric and
   a traced run every [per_layer] one. *)

let end_to_end =
  [ ("setup_s", "s");
    ("route_s", "s");
    ("peak_rss_mb", "MiB");
    ("delay_gap_pct", "%");
    ("area_mm2", "mm2");
    ("wire_mm", "mm");
    ("constraints_met", "count") ]

let per_layer =
  [ ("io.parse_s", "s");
    ("layout.feed_insert_s", "s");
    ("timing.build_s", "s");
    ("core.router_create_s", "s");
    ("core.candidates", "count");
    ("core.initial_route_s", "s");
    ("core.initial_us_per_deletion", "us");
    ("core.timing_phases_s", "s");
    ("core.improve_area_s", "s");
    ("core.run_other_s", "s");
    ("core.deletions", "count");
    ("core.cascade_pct", "%");
    ("core.passes", "count");
    ("channel.finish_s", "s");
    ("serve.accept_ms", "ms");
    ("serve.job_p50_ms", "ms");
    ("serve.job_p90_ms", "ms");
    ("serve.jobs", "count");
    ("serve.route_ms", "ms");
    ("serve.worker_overhead_ms", "ms");
    ("serve.worker_spawns", "count");
    ("persist.overhead_ms", "ms");
    ("persist.journal_bytes", "bytes");
    ("persist.snapshot_bytes", "bytes");
    ("analyze.qlog_bytes", "bytes");
    ("bench.reconcile_pct", "%");
    ("bench.prepare_reconcile_pct", "%");
    ("bench.trace_overhead_pct", "%");
    ("bench.fail_pct", "%");
    ("host.probe_start_ms", "ms");
    ("host.probe_end_ms", "ms") ]
