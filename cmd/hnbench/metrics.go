package main

// metricDef declares one metric the benchmark emits. BENCHMARK.json
// repeats these tables for the driver; hnbench_test.go holds the two
// in step.
type metricDef struct {
	name   string
	unit   string
	higher bool    // true: a higher value is better
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the honeynet sees. Every
// workload reports every one of them; what ttq_p50_ms and
// bytes_per_rec mean on the two read workloads is in the README, and so
// is the run-to-run spread on the reference box that sets the bounds.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"ops_per_s", "1/s", true, 0.25},
	{"latency_p50_ms", "ms", false, 0.25},
	{"cpu_us_per_op", "us", false, 0.25},
	{"ttq_p50_ms", "ms", false, 0.25},
	{"bytes_per_rec", "B", false, 0.05},
}

// perLayer are single-layer metrics, `<module>.<name>`. A workload that
// never reaches a layer reports 0 for it. The grouping follows the
// end-to-end metric and workload each one is expected to move (README,
// "How the layers map onto the end-to-end metrics").
var perLayer = []metricDef{
	// → ops_per_s, latency_p50_ms, cpu_us_per_op on wire_scout.
	{"sshclient.dial_p50_us", "us", false, 0},
	{"sshclient.close_p50_us", "us", false, 0},
	{"sshwire.handshake_us", "us", false, 0},
	{"sshwire.handshake_allocs", "count", false, 0},
	{"sshd.session_setup_us", "us", false, 0},
	{"sshd.conns_accepted", "count", true, 0},
	{"sshd.conns_shed", "count", false, 0},
	{"guard.admit_ns", "ns", false, 0},
	{"guard.shed", "count", false, 0},
	{"honeypot.connections", "count", true, 0},
	{"honeypot.sink_errors", "count", false, 0},
	// → the same three on wire_longcmd.
	{"sshclient.exec_p50_us", "us", false, 0},
	{"sshclient.exec_p99_us", "us", false, 0},
	{"sshwire.packet_us", "us", false, 0},
	{"sshwire.packet_allocs", "count", false, 0},
	{"shell.run_us_per_cmd", "us", false, 0},
	{"shell.cmds_per_session", "count", false, 0},
	{"vfs.new_fs_us", "us", false, 0},
	{"shell.download_us", "us", false, 0},
	{"vfs.changes_per_session", "count", false, 0},
	{"honeypot.commands", "count", true, 0},
	{"honeypot.downloads", "count", true, 0},
	{"guard.downloads_throttled", "count", false, 0},
	// → ttq_p50_ms on the wire workloads, latency_p50_ms on ingest_fleet.
	{"honeypot.record_emit_p50_ms", "ms", false, 0},
	{"store.append_p50_us", "us", false, 0},
	{"store.append_p99_us", "us", false, 0},
	{"store.batch_records_avg", "count", true, 0},
	{"fleet.recs_per_batch", "count", true, 0},
	{"fleet.commit_lag_p50_ms", "ms", false, 0},
	{"fleet.commit_lag_p99_ms", "ms", false, 0},
	{"fleet.max_lag_recs", "count", false, 0},
	{"fleet.catchup_s", "s", false, 0},
	{"fleet.ttq_p99_ms", "ms", false, 0},
	// → ops_per_s, cpu_us_per_op on ingest_fleet.
	{"session.encode_ns_per_rec", "ns", false, 0},
	{"session.decode_ns_per_rec", "ns", false, 0},
	{"session.shred_ns_per_rec", "ns", false, 0},
	{"session.json_bytes_per_rec", "B", false, 0},
	{"sessionlog.write_ns_per_rec", "ns", false, 0},
	{"store.wal_bytes_per_rec", "B", false, 0},
	{"store.batch_flushes", "count", false, 0},
	{"store.seals_background", "count", false, 0},
	{"store.seal_s", "s", false, 0},
	{"store.seal_blocks", "count", false, 0},
	{"fleet.forward_batches", "count", false, 0},
	{"fleet.acks", "count", false, 0},
	{"fleet.redelivered", "count", false, 0},
	{"fleet.duplicates", "count", false, 0},
	{"live.observe_p50_us", "us", false, 0},
	{"live.observe_p99_us", "us", false, 0},
	{"live.observe_dl_p50_us", "us", false, 0},
	{"live.classify_ns_per_text", "ns", false, 0},
	{"live.rules_skipped_ratio", "ratio", true, 0},
	{"live.assign_kernel_per_dl", "count", false, 0},
	{"live.assign_pruned_ratio", "ratio", true, 0},
	{"live.reclusters", "count", false, 0},
	{"classify.batch_ns_per_text", "ns", false, 0},
	// → bytes_per_rec on every workload, latency_p50_ms on query_mix.
	{"store.sealed_bytes_per_rec", "B", false, 0},
	{"store.segments", "count", false, 0},
	{"store.format_version", "count", true, 0},
	// → ops_per_s, latency_p50_ms, cpu_us_per_op on query_mix.
	{"query.compile_us", "us", false, 0},
	{"query.meta_p50_ms", "ms", false, 0},
	{"query.bloom_ip_p50_ms", "ms", false, 0},
	{"query.projection_p50_ms", "ms", false, 0},
	{"query.groupby_p50_ms", "ms", false, 0},
	{"query.regex_scan_p50_ms", "ms", false, 0},
	{"query.distinct_p50_ms", "ms", false, 0},
	{"store.open_ms", "ms", false, 0},
	{"store.blocks_read_per_round", "count", false, 0},
	{"store.blocks_skipped_per_round", "count", true, 0},
	{"store.segments_pruned_per_round", "count", true, 0},
	{"store.bloom_skips_per_round", "count", true, 0},
	{"store.stripes_read_per_round", "count", false, 0},
	{"store.rows_examined_per_row_returned", "ratio", false, 0},
	// → the same three on figures_batch.
	{"core.load_s", "s", false, 0},
	{"core.runall_s", "s", false, 0},
	{"store.stream_recs_per_s", "1/s", true, 0},
	{"core.live_heap_mb", "MiB", false, 0},
	{"analysis.tokenize_s", "s", false, 0},
	{"textdist.dld_matrix_s", "s", false, 0},
	{"cluster.kmedoids_s", "s", false, 0},
	{"cluster.ksweep_s", "s", false, 0},
	{"classify.batch_s", "s", false, 0},
	{"textdist.dld_pairs", "count", false, 0},
	{"textdist.dld_cells", "count", false, 0},
	{"textdist.cells_saved_ratio", "ratio", true, 0},
	{"analysis.matrix_reuse", "count", true, 0},
	// Every workload.
	{"proc.peak_rss_mb", "MiB", false, 0},
	{"proc.allocs_per_op", "count", false, 0},
	{"proc.alloc_bytes_per_op", "B", false, 0},
	{"proc.gc_cycles", "count", false, 0},
	{"proc.gc_pause_ms", "ms", false, 0},
	{"proc.ops_per_s_p1", "1/s", true, 0},
	{"simulate.run_s", "s", false, 0},
	{"trace.overhead_pct", "%", false, 0},
}

// workloadDefs names the workloads and, in one line each, why they exist.
var workloadDefs = []struct{ name, why string }{
	{"wire_scout", "failed-login scouting over real TCP+SSH: handshake, auth and record emit do the work; shell and vfs do none"},
	{"wire_longcmd", "curl_maxred, ~100 commands a session: shell, vfs and the channel mux do the work; the handshake is 4% of it"},
	{"ingest_fleet", "no wire: the 33-month corpus through store append, live analytics and the forwarder to a collector; store writes"},
	{"query_mix", "the ten paper-mapped statements over a sealed two-shard fleet directory; planner and store reads"},
	{"figures_batch", "open the fleet directory and render every figure; streaming load, clustering and classification, no planner"},
}

// metricSet collects the values one run measured, by metric name.
type metricSet map[string]float64
