package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	obstacles "repro"
	"repro/internal/telemetry"
)

const (
	// clients is the load's concurrency: goroutines for the in-process
	// workloads, connections for the wire workload.
	clients = 2
	// setupRepeats is how many times a timed run sets the program up;
	// setup_s is the median. Serving's set-up takes ~7 ms, so one reading
	// is mostly noise.
	setupRepeats = 11
)

type opKind int

const (
	opRead opKind = iota
	opWrite
)

var kindName = [2]string{"read", "write"}

// tally accumulates the operations of one measured phase.
type tally struct {
	mu        sync.Mutex
	lat       [2][]float64 // milliseconds, by kind, successful operations
	sumLat    float64      // milliseconds, every operation
	attempted int
	failed    int
	firstErr  error
	lag       []float64 // open loop: milliseconds each request was sent late
	rode      int       // serve: distance answers that rode a coalesced batch
	distances int       // serve: distance requests answered
	elapsed   time.Duration

	// Traced operations only.
	self     map[string]int64 // microseconds of self time by metric name
	traced   [2]int
	worstGap int64       // largest |sum of self times - root duration|, microseconds
	wire     []wireTrace // serve: traced requests whose span trees are still to be read
	traceErr error       // serve: the first span tree that could not be read back
}

func newTally() *tally { return &tally{self: map[string]int64{}} }

func (t *tally) record(k opKind, lat time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.sumLat += ms(lat)
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
		return
	}
	t.lat[k] = append(t.lat[k], ms(lat))
}

// recordTrace folds one traced operation's span tree into the per-layer
// self times and checks that they add up to its root span.
func (t *tally) recordTrace(k opKind, root *node) {
	nest(root)
	acc := map[string]int64{}
	sum := selfTimes(root, acc)
	gap := sum - (root.end - root.start)
	if gap < 0 {
		gap = -gap
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traced[k]++
	t.worstGap = max(t.worstGap, gap)
	for name, us := range acc {
		m, ok := spanMetric[name]
		if !ok {
			t.self["trace.unmapped_self_ms"] += us
			continue
		}
		t.self[m.metric] += us
	}
}

// rootNode turns a trace snapshot into one tree: spans whose parent was not
// recorded (none, normally) are hung under the root.
func rootNode(snap telemetry.TraceSnapshot) *node {
	if len(snap.Spans) == 0 {
		return &node{name: "empty"}
	}
	root := fromSnapshot(snap.Spans[0])
	for _, s := range snap.Spans[1:] {
		root.children = append(root.children, fromSnapshot(s))
	}
	return root
}

// inProcess runs one in-process operation, timing it from call to return.
// A traced operation runs under a root span of the benchmark's own, which
// the Database's verb, engine and commit spans join as descendants.
func inProcess(t *tally, k opKind, traced bool, f func(ctx context.Context) error) {
	ctx := context.Background()
	var tr *telemetry.Trace
	if traced {
		tr = telemetry.NewTrace()
		ctx = telemetry.ContextWithSpan(ctx, tr.Root(kindName[k]))
	}
	start := time.Now()
	err := f(ctx)
	lat := time.Since(start)
	if traced {
		tr.RootSpan().End()
		t.recordTrace(k, rootNode(tr.Snapshot()))
	}
	t.record(k, lat, err)
}

// closedLoop runs operations lo..hi-1 on two clients while admit allows;
// each client issues its next operation only when the previous returned.
// With shared, a client takes whichever operation is next; otherwise
// operation j is client j%clients's, for workloads whose clients carry
// state of their own. It returns the phase's wall time.
//
// Sharing matters for heavy-tailed costs: with a fixed partition each
// client kept its half of the 200-query kNN workload for the whole run,
// and how the slow queries split between the halves moved throughput
// between 25 and 39 reads per second across ten seeds.
func closedLoop(lo, hi int, admit func(j int) bool, shared bool, exec func(j int)) time.Duration {
	start := time.Now()
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			j := lo + ((c-lo)%clients+clients)%clients
			for {
				if shared {
					j = int(next.Add(1) - 1)
				}
				if j >= hi || !admit(j) {
					return
				}
				exec(j)
				j += clients
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// until admits operations until the deadline.
func until(deadline time.Time) func(int) bool {
	return func(int) bool { return time.Now().Before(deadline) }
}

func always(int) bool { return true }

// wholePasses admits operations in whole passes over a workload of n
// operations, operation j belonging to pass j/n: a pass starts only if, at
// the mean pass time so far, it ends within total. Every run then does the
// same work, each pass once, whatever the seed's order and the machine's
// speed.
func wholePasses(n int, total time.Duration) func(int) bool {
	var mu sync.Mutex
	start := time.Now()
	admitted := 1 // passes admitted; the first always is
	return func(j int) bool {
		mu.Lock()
		defer mu.Unlock()
		for admitted <= j/n {
			elapsed := time.Since(start)
			if elapsed+elapsed/time.Duration(admitted) > total {
				return false
			}
			admitted++
		}
		return true
	}
}

// pairedBlocks is the traced run's protocol: consecutive blocks of
// operations, each run twice back to back — once untraced, once traced,
// the order alternating between blocks — until the time is up. Both
// tallies then hold the same operations, so their latency sums compare
// tracing's cost on identical work. A block starts only if a pair of
// passes as long as the last one still fits in the time. pass runs
// operations lo..hi-1.
func pairedBlocks(total time.Duration, block int, pass func(lo, hi int, traced bool, t *tally)) (plain, traced *tally) {
	plain, traced = newTally(), newTally()
	start := time.Now()
	var last time.Duration // how long the previous pair of passes took
	for b := 0; b == 0 || time.Since(start)+last <= total; b++ {
		pairStart := time.Now()
		lo, hi := b*block, (b+1)*block
		if b%2 == 0 {
			pass(lo, hi, false, plain)
			pass(lo, hi, true, traced)
		} else {
			pass(lo, hi, true, traced)
			pass(lo, hi, false, plain)
		}
		last = time.Since(pairStart)
	}
	return plain, traced
}

// setLatency reports the read latencies of a timed phase.
func setLatency(rep *report, t *tally) {
	reads := t.lat[opRead]
	// p98 is the highest percentile every workload's run supports: the
	// open-loop workload completes 504 reads in a 36-second run.
	p98, ok := percentile(reads, 98)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: warning: %d reads leave fewer than %d samples beyond p98\n", len(reads), minTail)
	}
	rep.set("read_mean_ms", mean(reads))
	rep.set("read_p98_ms", p98)
	rep.count(t)
}

// setThroughput reports the completed reads per second of a closed-loop
// phase.
func setThroughput(rep *report, t *tally) {
	rep.set("reads_per_s", float64(len(t.lat[opRead]))/t.elapsed.Seconds())
}

// count adds a phase's operations to the run's.
func (r *report) count(t *tally) {
	r.attempted += t.attempted
	r.failed += t.failed
	if t.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failed operation:", t.firstErr)
	}
	if t.traceErr != nil {
		r.fail("reading a trace back: %v", t.traceErr)
	}
}

// setTraced reports the per-layer self times of the traced passes, the
// tracing overhead against the paired untraced passes, and the write
// latencies of the untraced passes.
func setTraced(rep *report, plain, traced *tally) {
	for name, us := range traced.self {
		base := traced.traced[opRead]
		if name == "trace.unmapped_self_ms" {
			base += traced.traced[opWrite]
		} else if perWriteMetric(name) {
			base = traced.traced[opWrite]
		}
		if base > 0 {
			rep.set(name, float64(us)/1000/float64(base))
		}
	}
	if plain.sumLat > 0 {
		rep.set("trace.overhead_pct", (traced.sumLat/plain.sumLat-1)*100)
	}
	if w := plain.lat[opWrite]; len(w) > 0 {
		p50, _ := percentile(w, 50)
		p99, ok := percentile(w, 99)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: warning: %d writes leave fewer than %d samples beyond p99\n", len(w), minTail)
		}
		rep.set("db.write_p50_ms", p50)
		rep.set("db.write_p99_ms", p99)
		rep.set("db.writes_per_s", float64(len(w))/plain.elapsed.Seconds())
	}
	rep.count(plain)
	rep.count(traced)
	// Self times are whole microseconds taken from offsets truncated to
	// microseconds, so each span may lose one.
	if traced.worstGap > 2 {
		rep.fail("layer self times of one operation differ from its root span by %d us", traced.worstGap)
	}
}

func perWriteMetric(name string) bool {
	for _, m := range spanMetric {
		if m.metric == name {
			return m.perWrite
		}
	}
	return false
}

// exactCounts accumulates the program's own work counters over the
// exact-count pass: one client, a fixed seeded subset of the workload's
// reads, on a freshly set-up program, so the counts repeat exactly.
type exactCounts struct {
	n                            int
	pages, logical, hits         uint64
	candidates, falseHits, dists int
	settled, expansions, builds  uint64
	nodes, edges                 int
	mallocs, allocBytes          uint64
	memBefore                    runtime.MemStats
}

func (e *exactCounts) start() { runtime.ReadMemStats(&e.memBefore) }

func (e *exactCounts) add(qs obstacles.QueryStats) {
	e.n++
	e.pages += qs.PageAccesses
	e.logical += qs.LogicalReads
	e.hits += qs.BufferHits
	e.candidates += qs.Candidates
	e.falseHits += qs.FalseHits
	e.dists += qs.DistComputations
	e.settled += qs.SettledNodes
	e.expansions += qs.Expansions
	e.builds += qs.GraphBuilds
	e.nodes += qs.GraphNodes
	e.edges += qs.GraphEdges
}

func (e *exactCounts) stop() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	e.mallocs = m.Mallocs - e.memBefore.Mallocs
	e.allocBytes = m.TotalAlloc - e.memBefore.TotalAlloc
}

func (e *exactCounts) report(rep *report) {
	if e.n == 0 {
		return
	}
	n := float64(e.n)
	rep.set("rtree.pages_per_read", float64(e.pages)/n)
	if e.logical > 0 {
		rep.set("rtree.buffer_hit_ratio", float64(e.hits)/float64(e.logical))
	}
	rep.set("core.candidates_per_read", float64(e.candidates)/n)
	rep.set("core.false_hits_per_read", float64(e.falseHits)/n)
	rep.set("core.dist_computations_per_read", float64(e.dists)/n)
	rep.set("visgraph.settled_per_read", float64(e.settled)/n)
	rep.set("visgraph.expansions_per_read", float64(e.expansions)/n)
	rep.set("visgraph.builds_per_read", float64(e.builds)/n)
	rep.set("visgraph.graph_nodes", float64(e.nodes)/n)
	rep.set("visgraph.graph_edges", float64(e.edges)/n)
	rep.set("go.alloc_bytes_per_read", float64(e.allocBytes)/n)
	rep.set("go.allocs_per_read", float64(e.mallocs)/n)
}

// setCache reports graph-cache traffic between two snapshots, per read.
func setCache(rep *report, before, after obstacles.CacheStats, reads int) {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if hits+misses > 0 {
		rep.set("core.graph_cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	if reads > 0 {
		rep.set("core.graph_cache_evictions_per_read", float64(after.Evictions-before.Evictions)/float64(reads))
	}
}

// liveHeap returns the live heap in bytes: what the last garbage
// collection found reachable.
func liveHeap() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// baseHeap returns the live heap after a forced collection: before set-up,
// the benchmark's own inputs.
func baseHeap() float64 {
	runtime.GC()
	return liveHeap()
}

// setHeap reports the live heap after the timed run and a forced
// collection, beyond the benchmark's own inputs (base): the program's
// loaded data and whatever its caches kept.
func setHeap(rep *report, base float64) {
	rep.set("heap_mb", (baseHeap()-base)/1e6)
}

// timeSetups sets the program up setupRepeats times and reports the median
// set-up time. Each system but the last is torn down; the last is returned.
func timeSetups[T any](rep *report, setup func() (T, error), teardown func(T)) (T, error) {
	var durs []float64
	var sys T
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown(sys)
		}
		runtime.GC() // so no set-up pays for collecting its predecessor
		start := time.Now()
		var err error
		if sys, err = setup(); err != nil {
			return sys, err
		}
		durs = append(durs, time.Since(start).Seconds())
	}
	rep.set("setup_s", median(durs))
	return sys, nil
}
