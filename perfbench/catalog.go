package main

// endToEndCatalog lists the gated end-to-end metrics every untraced run
// prints, in BENCHMARK.json order. latency_tail_ms and first_cell_ms are
// measured on every workload too but reported in the sidecar only: their
// run-to-run spread on a shared 2-vCPU host (serve-hot's p99, serve-cold's
// first NDJSON cell) is wider than the largest bound a gate may have.
var endToEndCatalog = []catalogEntry{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"cells_per_s", "cells/s"},
	{"heap_peak_mb", "MB"},
}

// perLayerCatalog lists the per-layer metrics every traced run prints,
// in BENCHMARK.json order. A layer the workload does not reach reports
// 0 and is named in the sidecar's not_reached list.
var perLayerCatalog = []catalogEntry{
	{"attackd.hit_ratio", "fraction"},
	{"attackd.shared_ratio", "ratio"},
	{"attackd.hit_latency_us", "us"},
	{"attackd.stage.parse_ms", "ms"},
	{"attackd.stage.cache_ms", "ms"},
	{"attackd.stage.encode_ms", "ms"},
	{"attackd.stage.build_ms", "ms"},
	{"attackd.stage.solve_ms", "ms"},
	{"attackd.job_polls", "count"},
	{"attackd.conn_wait_ms", "ms"},
	{"attackd.refused", "count"},
	{"attackd.gen_lag_ms", "ms"},
	{"attackd.self_ms", "ms"},
	{"sweep.dedup_ratio", "ratio"},
	{"sweep.lanes", "count"},
	{"sweep.iters_per_chain", "count"},
	{"sweep.self_ms", "ms"},
	{"build.space_ms", "ms"},
	{"build.gains_ms", "ms"},
	{"build.matrix_ms", "ms"},
	{"build.rows_per_s", "1/s"},
	{"build.states", "count"},
	{"build.nnz", "count"},
	{"build.self_ms", "ms"},
	{"matrix.factor_ms", "ms"},
	{"matrix.mixing_probe_ms", "ms"},
	{"matrix.iterations", "count"},
	{"matrix.fallbacks", "count"},
	{"matrix.ns_per_iter_nnz", "ns"},
	{"matrix.spmv_gbps", "GB/s"},
	{"matrix.bytes_per_spmv_computed", "B"},
	{"matrix.bytes_per_iter_computed", "B"},
	{"matrix.copy_gbps", "GB/s"},
	{"matrix.self_ms", "ms"},
	{"markov.visits_ms", "ms"},
	{"markov.visits.iters", "count"},
	{"markov.sojourns_ms", "ms"},
	{"markov.sojourns.iters", "count"},
	{"markov.absorption_ms", "ms"},
	{"markov.absorption.iters", "count"},
	{"markov.absorbed_within_ms", "ms"},
	{"markov.absorbed_within.iters", "count"},
	{"markov.hit_ms", "ms"},
	{"markov.hit.iters", "count"},
	{"markov.self_ms", "ms"},
	{"overlaynet.bootstrap_ms", "ms"},
	{"overlaynet.run_ms", "ms"},
	{"des.events", "count"},
	{"des.events_per_s", "events/s"},
	{"overlaynet.allocs_per_event", "count"},
	{"overlaynet.self_ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.allocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

type catalogEntry struct{ name, unit string }

// fromCatalog returns exactly the catalog's metrics from got, with 0 for
// the ones got lacks; it also returns the names it filled and the
// metrics of got outside the catalog.
func fromCatalog(cat []catalogEntry, got map[string]metric) (map[string]metric, []string, map[string]metric) {
	out := make(map[string]metric, len(cat))
	var missing []string
	for _, e := range cat {
		m, ok := got[e.name]
		if !ok {
			missing = append(missing, e.name)
			m = metric{0, e.unit}
		}
		out[e.name] = m
	}
	extra := map[string]metric{}
	for k, v := range got {
		if _, ok := out[k]; !ok {
			extra[k] = v
		}
	}
	return out, missing, extra
}
