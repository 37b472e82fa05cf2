package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// spreadMain runs the benchmark once per seed in a child process and prints,
// per metric, the median, the quartiles and the interquartile spread as a
// share of the median — the stability rule the benchmark's bounds are
// judged by.
func spreadMain(args []string) int {
	fs := flag.NewFlagSet("spread", flag.ExitOnError)
	var (
		name    = fs.String("workload", "", "workload to run")
		runs    = fs.Int("runs", 10, "number of runs, one per seed")
		seconds = fs.String("seconds", "20", "seconds per run")
		trace   = fs.String("trace", "0", "0 or 1, as for a single run")
	)
	fs.Parse(args)
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench spread:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < *runs; i++ {
		seed := strconv.Itoa(i + 1)
		cmd := exec.Command(self, "--workload", *name, "--seed", seed, "--seconds", *seconds, "--trace", *trace)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench spread: seed %s: %v\n", seed, err)
			return 1
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		fmt.Printf("seed %s: %s\n", seed, lines[len(lines)-1])
		var res struct {
			Correct bool                  `json:"correct"`
			Metrics map[string]metricJSON `json:"metrics"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench spread: seed %s: %v\n", seed, err)
			return 1
		}
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "perfbench spread: seed %s: answers failed their checks\n", seed)
			return 1
		}
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-40s %14s %14s %14s %8s\n", "metric", "median", "q1", "q3", "spread")
	for _, k := range names {
		q1, _, q3 := quartiles(values[k])
		fmt.Printf("%-40s %14.6g %14.6g %14.6g %8.4f  %s\n", k, median(values[k]), q1, q3, spread(values[k]), units[k])
	}
	return 0
}
