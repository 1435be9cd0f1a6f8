// Command perfbench is the repository benchmark: it measures the host
// cost (wall time, memory) of the simulated MPI+threads runtime on four
// closed-loop workloads, checks the simulated outputs, and in a separate
// traced run reports per-layer metrics. It is driver shell, not
// deterministic core: it reads the wall clock by design, while every
// simulation it runs stays seeded.
//
// Usage (from the repository root):
//
//	python3 perfbench/run.py --workload p2p-contended --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
)

// defaultSeed is the seed whose simulated-result digests are recorded in
// testdata/digests.txt.
const defaultSeed = 1

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// minPoints is the fewest timed points a point workload runs, so that
// point_p90_ms has at least minBeyond points beyond it.
const minPoints = 110

// hardStopSec stops starting new passes or sweeps, so a run on a slow
// host still ends well inside its time limit.
const hardStopSec = 120

var workloadNames = []string{"sweep-quick", "p2p-contended", "n2n-sharded", "chaos-recovery"}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one benchmark run.
type bench struct {
	workload  string
	seed      uint64
	seconds   float64
	tr        *tracer
	attempted int
	failed    int
	metrics   map[string]metric
}

// outcome records one attempted unit (point or experiment) and reports
// whether it passed; failures are logged to stderr.
func (b *bench) outcome(err error) bool {
	b.attempted++
	if err == nil {
		return true
	}
	b.failed++
	if b.failed <= 5 {
		fmt.Fprintf(os.Stderr, "FAIL %v\n", err)
	}
	return false
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	workload := flag.String("workload", "", "workload: "+fmt.Sprint(workloadNames))
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	known := false
	for _, w := range workloadNames {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds >= 1, --trace 0|1\n", workloadNames)
		os.Exit(2)
	}
	b := &bench{workload: *workload, seed: *seed, seconds: float64(*seconds),
		metrics: map[string]metric{}}
	var err error
	if *trace == 1 {
		err = b.traced()
	} else {
		err = b.measure()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: attempted %d, failed %d, failed_frac %.4f\n",
		b.workload, b.seed, b.attempted, b.failed, failedFrac(b.attempted, b.failed))
	out, err := json.Marshal(result{Correct: b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// processStartSec is the time from the launcher's exec to now, when the
// launcher passed its timestamp (PERFBENCH_T0_NS, Unix nanoseconds).
func processStartSec() float64 {
	t0, err := strconv.ParseInt(os.Getenv("PERFBENCH_T0_NS"), 10, 64)
	if err != nil {
		return 0
	}
	return float64(now().UnixNano()-t0) / 1e9
}

// totalAllocMB reads the cumulative heap allocation in MB.
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// peakRSSMB is the process's maximum resident set size in MB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// summarize prints a sample's median, minimum, quartiles and count to stderr.
func summarize(name, unit string, xs []float64) {
	fmt.Fprintf(os.Stderr, "  %-16s median %.6g %s  (min %.6g, q1 %.6g, q3 %.6g, n=%d)\n",
		name, median(xs), unit, percentile(xs, 0), percentile(xs, 25), percentile(xs, 75), len(xs))
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
