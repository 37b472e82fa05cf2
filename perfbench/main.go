// Command perfbench is the repository's benchmark. One run builds one
// workload's inputs from a seed with internal/dataset, sets the program up,
// drives it for a fixed time through its public surfaces (the
// obstacles.Database verbs, internal/server over loopback HTTP, and
// internal/visgraph for the kernel replay), checks its answers, and prints
// one JSON object as its last line of output:
//
//	perfbench --workload knn-city --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 the run is a separate traced run of the same
// workload, seed and concurrency; its metrics are the per-layer ones (see
// metrics.go). Load comes from one process with at most two client
// goroutines or connections.
//
//	perfbench spread --workload knn-city --runs 10 [--seconds 20] [--trace 0]
//
// runs the benchmark once per seed 1..runs and prints, per metric, the
// median and the interquartile spread as a share of the median.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"
)

// worldSeed fixes the city every workload runs in: obstacle layouts drawn
// from different seeds differ so much in cost (kNN throughput ranged over
// ±20% between the first five seeds) that runs across seeds would measure
// the cities rather than the program. The run's seed draws the traffic —
// query points, hot centres, written points and obstacles — in that city.
const worldSeed = 1

// trafficRand returns the generator for one stream of a run's traffic.
func trafficRand(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// runConfig is what one benchmark run was asked to do.
type runConfig struct {
	seed    int64
	seconds time.Duration
	traced  bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*report, error){
	"knn-city":      runKNNCity,
	"serve-hotspot": runServeHotspot,
	"durable-churn": runDurableChurn,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "spread" {
		os.Exit(spreadMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload: knn-city, serve-hotspot or durable-churn")
		seed    = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "length of the measured run in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := rep.finish(cfg.traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// report is one run's result: the answer-check verdict, the operation
// counts and the metrics by name.
type report struct {
	correct           bool
	attempted, failed int
	values            map[string]float64
}

func newReport() *report {
	return &report{correct: true, values: map[string]float64{}}
}

// set records a metric; the name must be one of the declared metrics.
func (r *report) set(name string, v float64) {
	if _, ok := metricUnits[name]; !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.values[name] = v
}

// fail marks the run's answers wrong and says why on standard error.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish renders the result line. A traced run reports every per-layer
// metric, zero where the workload does not exercise the layer; a timed run
// must have measured every end-to-end metric.
func (r *report) finish(traced bool) ([]byte, error) {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	ms := make(map[string]metricJSON, len(specs))
	for _, s := range specs {
		v, ok := r.values[s.name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", s.name, v)
		}
		ms[s.name] = metricJSON{Value: v, Unit: s.unit}
	}
	if r.attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
}
