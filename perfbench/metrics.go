package main

// spec declares one reported metric. BENCHMARK.json lists the same names
// and units; TestMetricsMatchBenchmarkJSON keeps the two in step.
type spec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports all of them. Read latency is reported
// as a mean rather than a median: serve-hotspot's request cost is bimodal
// (graph-cache hits and coalesced riders take ~3 ms, misses and kNN
// 50-300 ms) and its median sits on the steep rise between the modes
// (p45 3.2 ms, p55 7.9 ms), where it moved from 3.1 to 5.6 ms between runs
// of the same request sequence.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"read_mean_ms", "ms"},
	{"read_p98_ms", "ms"},
	{"reads_per_s", "1/s"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics of single layers, from the traced run, the
// exact-count pass and the kernel replay. Times are self times: a span's
// duration minus the part its child spans cover, averaged per read (or per
// write for the commit path).
var perLayer = []spec{
	// server (serve-hotspot)
	{"wire.overhead_ms", "ms"},
	{"server.route_self_ms", "ms"},
	{"server.admission_wait_ms", "ms"},
	{"server.coalesce_park_ms", "ms"},
	{"server.coalesce_lead_ms", "ms"},
	{"server.coalesce_ride_ratio", "ratio"},
	{"loadgen.lag_p99_ms", "ms"},
	// obstacles: the Database verbs and the commit path
	{"db.read_call_self_ms", "ms"},
	{"db.range_self_ms", "ms"},
	{"db.nearest_self_ms", "ms"},
	{"db.distance_self_ms", "ms"},
	{"db.path_self_ms", "ms"},
	{"db.batch_self_ms", "ms"},
	{"db.write_call_self_ms", "ms"},
	{"db.commit_stage_ms", "ms"},
	{"db.commit_park_ms", "ms"},
	{"db.checkpoint_ms", "ms"},
	{"db.cow_copies_per_write", "count"},
	{"db.write_p50_ms", "ms"},
	{"db.write_p99_ms", "ms"},
	{"db.writes_per_s", "1/s"},
	// core
	{"core.obstacle_scan_ms", "ms"},
	{"core.graph_cache_hit_ratio", "ratio"},
	{"core.graph_cache_evictions_per_read", "count"},
	{"core.dist_computations_per_read", "count"},
	{"core.candidates_per_read", "count"},
	{"core.false_hits_per_read", "count"},
	// visgraph
	{"visgraph.build_ms", "ms"},
	{"visgraph.grow_ms", "ms"},
	{"visgraph.dijkstra_ms", "ms"},
	{"visgraph.settled_per_read", "count"},
	{"visgraph.expansions_per_read", "count"},
	{"visgraph.builds_per_read", "count"},
	{"visgraph.graph_nodes", "count"},
	{"visgraph.graph_edges", "count"},
	{"visgraph.replay_build_us", "us"},
	{"visgraph.replay_terminal_us", "us"},
	{"visgraph.replay_expand_us", "us"},
	{"visgraph.replay_visible_us", "us"},
	// rtree / pagefile
	{"rtree.pages_per_read", "count"},
	{"rtree.buffer_hit_ratio", "ratio"},
	// wal and storage
	{"wal.append_ms", "ms"},
	{"wal.fsync_ms", "ms"},
	{"wal.commits_per_fsync", "count"},
	{"storage.write_bytes_per_write", "B"},
	// Go runtime
	{"go.alloc_bytes_per_read", "B"},
	{"go.allocs_per_read", "count"},
	// tracing itself
	{"trace.overhead_pct", "%"},
	{"trace.unmapped_self_ms", "ms"},
}

var metricUnits = func() map[string]string {
	m := map[string]string{}
	for _, s := range append(append([]spec(nil), endToEnd...), perLayer...) {
		m[s.name] = s.unit
	}
	return m
}()

// spanMetric maps a span name to the per-layer metric its self time feeds,
// and whether that metric is averaged per write rather than per read.
// "read" and "write" are the benchmark's own root spans around an
// in-process call, "wire" its root around a request, and "route:<name>"
// the server's request span. Spans of any other name land in
// trace.unmapped_self_ms, so the layer times still add up to the root.
var spanMetric = map[string]struct {
	metric   string
	perWrite bool
}{
	"read":                {"db.read_call_self_ms", false},
	"write":               {"db.write_call_self_ms", true},
	"wire":                {"wire.overhead_ms", false},
	"route:distance":      {"server.route_self_ms", false},
	"route:path":          {"server.route_self_ms", false},
	"route:nearest":       {"server.route_self_ms", false},
	"admission-wait":      {"server.admission_wait_ms", false},
	"coalesce-park":       {"server.coalesce_park_ms", false},
	"coalesce-lead":       {"server.coalesce_lead_ms", false},
	"range":               {"db.range_self_ms", false},
	"nearest_neighbors":   {"db.nearest_self_ms", false},
	"obstructed_distance": {"db.distance_self_ms", false},
	"obstructed_path":     {"db.path_self_ms", false},
	"batch_distances":     {"db.batch_self_ms", false},
	"obstacle-scan":       {"core.obstacle_scan_ms", false},
	"graph-build":         {"visgraph.build_ms", false},
	"graph-grow":          {"visgraph.grow_ms", false},
	"dijkstra":            {"visgraph.dijkstra_ms", false},
	"stage":               {"db.commit_stage_ms", true},
	"park":                {"db.commit_park_ms", true},
	"checkpoint":          {"db.checkpoint_ms", true},
	"wal-append":          {"wal.append_ms", true},
	"fsync":               {"wal.fsync_ms", true},
}
