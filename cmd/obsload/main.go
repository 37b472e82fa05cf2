// Command obsload drives a running obsd daemon and reports throughput and
// latency percentiles.
//
// Usage:
//
//	obsload -addr localhost:8080 -clients 16 -duration 10s -verb distance
//	obsload -addr localhost:8080 -quick -json
//
// Each client goroutine issues requests back to back: obstructed-distance
// queries (-verb distance), nearest-neighbor queries (-verb nearest),
// range queries (-verb range), or a read-mostly mix (-verb mixed). Query
// points are drawn around -hotspots hot centers with -spread jitter, so
// concurrent clients land in the same regions the way real workloads
// hammer the same map areas; raise -spread (or set -hotspots 0) for
// uniform traffic that rarely reuses a cached graph.
//
// Before and after the run obsload scrapes the daemon's /metrics and
// reports the engine's graph-reuse deltas: visibility-graph builds and
// graph-cache hits.
//
// With -traces N, after the run obsload pulls the daemon's flight recorder
// (/debug/traces) and prints the span trees of the N slowest retained
// traces — per-stage timing (admission, graph build, Dijkstra,
// WAL append, fsync) for the worst requests of the run, straight from the
// server. The daemon samples normal-tier traces (obsd -trace-sample), so
// under low sampling the recorder may hold fewer than N; errors and slow
// queries are always retained.
//
// -quick is a CI-sized preset (2 clients, 25 requests each); -json emits
// the summary as one JSON object for scripts and BENCH files.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

type summary struct {
	Verb     string  `json:"verb"`
	Clients  int     `json:"clients"`
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	Seconds  float64 `json:"seconds"`
	RPS      float64 `json:"rps"`
	P50ms    float64 `json:"p50_ms"`
	P95ms    float64 `json:"p95_ms"`
	P99ms    float64 `json:"p99_ms"`

	GraphBuilds    uint64 `json:"graph_builds"`
	GraphCacheHits uint64 `json:"graph_cache_hits"`
}

func main() {
	var (
		addr     = flag.String("addr", "localhost:8080", "obsd address")
		clients  = flag.Int("clients", 4, "concurrent client goroutines")
		requests = flag.Int("requests", 0, "requests per client (0 = run for -duration)")
		duration = flag.Duration("duration", 5*time.Second, "run length when -requests is 0")
		verb     = flag.String("verb", "distance", "workload: distance, nearest, range, or mixed")
		name     = flag.String("dataset", "P", "dataset for nearest/range queries")
		k        = flag.Int("k", 8, "neighbors per nearest query")
		radius   = flag.Float64("radius", 300, "radius per range query")
		hotspots = flag.Int("hotspots", 4, "hot centers queries concentrate on (0 = uniform)")
		spread   = flag.Float64("spread", 150, "jitter around a hot center")
		extent   = flag.String("extent", "0,0,10000,10000", "world bounds minx,miny,maxx,maxy")
		seed     = flag.Int64("seed", 1, "workload seed")
		timeout  = flag.Duration("timeout", 0, "per-request ?timeout= (0 = server default)")
		quick    = flag.Bool("quick", false, "CI preset: 2 clients, 25 requests each")
		jsonOut  = flag.Bool("json", false, "emit the summary as JSON")
		traces   = flag.Int("traces", 0, "after the run, print the N slowest retained trace trees")
	)
	flag.Parse()
	if *quick {
		*clients, *requests = 2, 25
	}
	if err := run(*addr, *clients, *requests, *duration, *verb, *name, *k, *radius,
		*hotspots, *spread, *extent, *seed, *timeout, *jsonOut, *traces); err != nil {
		fmt.Fprintln(os.Stderr, "obsload:", err)
		os.Exit(1)
	}
}

func run(addr string, clients, requests int, duration time.Duration, verb, name string,
	k int, radius float64, hotspots int, spread float64, extent string, seed int64,
	timeout time.Duration, jsonOut bool, traces int) error {
	var minX, minY, maxX, maxY float64
	if _, err := fmt.Sscanf(extent, "%f,%f,%f,%f", &minX, &minY, &maxX, &maxY); err != nil {
		return fmt.Errorf("bad -extent %q: %v", extent, err)
	}
	switch verb {
	case "distance", "nearest", "range", "mixed":
	default:
		return fmt.Errorf("unknown -verb %q", verb)
	}
	base := "http://" + addr

	// Hot centers shared by every client: repeated regions are what the
	// engine's graph cache reuses.
	centers := make([][2]float64, 0, hotspots)
	crng := rand.New(rand.NewSource(seed))
	for i := 0; i < hotspots; i++ {
		centers = append(centers, [2]float64{
			minX + crng.Float64()*(maxX-minX),
			minY + crng.Float64()*(maxY-minY),
		})
	}
	point := func(rng *rand.Rand) [2]float64 {
		if len(centers) == 0 {
			return [2]float64{
				minX + rng.Float64()*(maxX-minX),
				minY + rng.Float64()*(maxY-minY),
			}
		}
		c := centers[rng.Intn(len(centers))]
		return [2]float64{
			c[0] + (rng.Float64()*2-1)*spread,
			c[1] + (rng.Float64()*2-1)*spread,
		}
	}

	before, err := scrape(base)
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w (is obsd running on %s?)", err, addr)
	}

	qs := ""
	if timeout > 0 {
		qs = "?timeout=" + timeout.String()
	}
	deadline := time.Now().Add(duration)
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		latencies []float64
		errCount  int
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)*7919))
			cli := &http.Client{}
			var lats []float64
			errs := 0
			for i := 0; requests == 0 || i < requests; i++ {
				if requests == 0 && time.Now().After(deadline) {
					break
				}
				v := verb
				if v == "mixed" {
					// Read-mostly mix: distance-heavy with some kNN and range.
					switch r := rng.Float64(); {
					case r < 0.6:
						v = "distance"
					case r < 0.85:
						v = "nearest"
					default:
						v = "range"
					}
				}
				var url string
				var body any
				switch v {
				case "distance":
					url = base + "/v1/distance" + qs
					body = map[string]any{"a": point(rng), "b": point(rng)}
				case "nearest":
					url = base + "/v1/datasets/" + name + "/nearest" + qs
					body = map[string]any{"q": point(rng), "k": k}
				case "range":
					url = base + "/v1/datasets/" + name + "/range" + qs
					body = map[string]any{"q": point(rng), "radius": radius}
				}
				buf, _ := json.Marshal(body)
				t0 := time.Now()
				resp, err := cli.Post(url, "application/json", bytes.NewReader(buf))
				lat := time.Since(t0)
				if err != nil {
					errs++
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errs++
				}
				// Drain so the connection is reused.
				_, _ = bufio.NewReader(resp.Body).Discard(1 << 20)
				resp.Body.Close()
				lats = append(lats, lat.Seconds()*1000)
			}
			mu.Lock()
			latencies = append(latencies, lats...)
			errCount += errs
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	after, err := scrape(base)
	if err != nil {
		return fmt.Errorf("scrape /metrics after run: %w", err)
	}

	sort.Float64s(latencies)
	sum := summary{
		Verb:     verb,
		Clients:  clients,
		Requests: len(latencies),
		Errors:   errCount,
		Seconds:  elapsed.Seconds(),
		RPS:      float64(len(latencies)) / elapsed.Seconds(),
		P50ms:    pctl(latencies, 50),
		P95ms:    pctl(latencies, 95),
		P99ms:    pctl(latencies, 99),

		GraphBuilds:    after["obstacles_query_graph_builds_total"] - before["obstacles_query_graph_builds_total"],
		GraphCacheHits: after["obstacles_graph_cache_hits_total"] - before["obstacles_graph_cache_hits_total"],
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(sum)
	}
	fmt.Printf("%d clients x %s: %d requests (%d errors) in %.2fs = %.0f req/s\n",
		sum.Clients, verb, sum.Requests, sum.Errors, sum.Seconds, sum.RPS)
	fmt.Printf("latency ms: p50 %.2f  p95 %.2f  p99 %.2f\n", sum.P50ms, sum.P95ms, sum.P99ms)
	fmt.Printf("engine: %d graph builds, %d graph-cache hits\n", sum.GraphBuilds, sum.GraphCacheHits)
	if traces > 0 {
		if err := printSlowest(base, traces); err != nil {
			return fmt.Errorf("fetch traces: %w", err)
		}
	}
	return nil
}

// traceSummary and spanNode mirror the flight recorder's JSON just enough
// to rank and render; unknown fields are ignored.
type traceSummary struct {
	TraceID        string `json:"trace_id"`
	Name           string `json:"name"`
	DurationMicros int64  `json:"duration_us"`
	Tier           string `json:"tier"`
	NumSpans       int    `json:"num_spans"`
}

type traceTree struct {
	TraceID        string      `json:"trace_id"`
	Name           string      `json:"name"`
	DurationMicros int64       `json:"duration_us"`
	Tier           string      `json:"tier"`
	Spans          []*spanNode `json:"spans"`
}

type spanNode struct {
	Name           string         `json:"name"`
	StartMicros    int64          `json:"start_us"`
	DurationMicros int64          `json:"duration_us"`
	Attrs          map[string]any `json:"attrs"`
	Links          []string       `json:"links"`
	Children       []*spanNode    `json:"children"`
}

// printSlowest lists the recorder's retained traces, ranks them by root
// duration, and prints the n slowest as indented span trees.
func printSlowest(base string, n int) error {
	var list []traceSummary
	if err := getJSON(base+"/debug/traces", &list); err != nil {
		return err
	}
	if len(list) == 0 {
		fmt.Println("\nno traces retained (is obsd running with -trace-sample > 0?)")
		return nil
	}
	sort.Slice(list, func(i, j int) bool {
		return list[i].DurationMicros > list[j].DurationMicros
	})
	if len(list) > n {
		list = list[:n]
	}
	fmt.Printf("\nslowest %d of %d retained traces:\n", len(list), n)
	for _, s := range list {
		var tree traceTree
		if err := getJSON(base+"/debug/traces/"+s.TraceID, &tree); err != nil {
			return err
		}
		fmt.Printf("\n%s %s %.2fms (%s, %d spans)\n",
			tree.TraceID, tree.Name, float64(tree.DurationMicros)/1000, s.Tier, s.NumSpans)
		for _, sp := range tree.Spans {
			printSpan(sp, 1)
		}
	}
	return nil
}

func printSpan(sp *spanNode, depth int) {
	fmt.Printf("%s%s @%.2fms +%.2fms", strings.Repeat("  ", depth), sp.Name,
		float64(sp.StartMicros)/1000, float64(sp.DurationMicros)/1000)
	if len(sp.Attrs) > 0 {
		keys := make([]string, 0, len(sp.Attrs))
		for k := range sp.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf(" %s=%v", k, sp.Attrs[k])
		}
	}
	for _, l := range sp.Links {
		fmt.Printf(" link=%s", l)
	}
	fmt.Println()
	for _, c := range sp.Children {
		printSpan(c, depth+1)
	}
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// pctl reads the p-th percentile from ascending ms samples.
func pctl(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p / 100 * float64(len(sorted)-1))
	return sorted[i]
}

// scrape fetches /metrics and sums each series family by name (labels
// collapsed), enough to diff counters across a run.
func scrape(base string) (map[string]uint64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]uint64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		nm := line[:sp]
		if b := strings.IndexByte(nm, '{'); b >= 0 {
			nm = nm[:b]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[sp+1:]), 64)
		if err != nil {
			continue
		}
		out[nm] += uint64(v)
	}
	return out, sc.Err()
}
