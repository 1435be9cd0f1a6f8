package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"strings"

	"mpicontend/mpisim"
)

// digestPath records the simulated-result digest of each point workload
// at defaultSeed, relative to the repository root.
const digestPath = "perfbench/testdata/digests.txt"

// warmupExperiment is the sweep-quick set-up's untimed warm-up point.
const warmupExperiment = "fig8a"

// inputs is what a run's set-up produces.
type inputs struct {
	points []point           // point workloads
	golden map[string]string // sweep-quick: experiment id → SHA-256
	digest string            // recorded digest for (workload, seed), if any
}

// loadDigest returns the recorded digest for workload at seed, or "".
func loadDigest(workload string, seed uint64) (string, error) {
	f, err := os.Open(digestPath)
	if err != nil {
		return "", fmt.Errorf("open digests: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	want := fmt.Sprintf("%s %d ", workload, seed)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, want) {
			return strings.TrimSpace(line[len(want):]), nil
		}
	}
	return "", sc.Err()
}

func loadGolden() (map[string]string, error) {
	f, err := os.Open(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("quick golden (run from the repository root): %w", err)
	}
	defer f.Close()
	return parseGolden(f)
}

// setup generates the run's inputs from the seed, loads the reference
// data and runs one untimed warm-up point.
func (b *bench) setup() (inputs, error) {
	var in inputs
	var err error
	if b.workload == "sweep-quick" {
		if in.golden, err = loadGolden(); err != nil {
			return in, err
		}
		figs, err := mpisim.RunExperimentMode(warmupExperiment, true, 0, mpisim.PollingProgress)
		if err == nil && experimentHash(figs) != in.golden[warmupExperiment] {
			err = fmt.Errorf("warm-up %s: output differs from the quick golden", warmupExperiment)
		}
		b.outcome(err)
		return in, nil
	}
	if in.points, err = buildPoints(b.workload, b.seed); err != nil {
		return in, err
	}
	if in.digest, err = loadDigest(b.workload, b.seed); err != nil {
		return in, err
	}
	p := in.points[0]
	o, err := p.run(nil)
	if err == nil {
		err = p.check(o)
	}
	b.outcome(err)
	return in, nil
}

// timedSetup runs setup reps times and reports the median plus the
// launcher-to-main process start as setup_s.
func (b *bench) timedSetup(reps int) (inputs, error) {
	start := processStartSec()
	var in inputs
	var secs []float64
	for r := 0; r < reps; r++ {
		t := now()
		var err error
		if in, err = b.setup(); err != nil {
			return in, err
		}
		secs = append(secs, since(t).Seconds())
	}
	summarize("setup reps", "s", secs)
	b.set("setup_s", start+median(secs), "s")
	return in, nil
}

// measure is the untraced run: it reports every end-to-end metric.
func (b *bench) measure() error {
	in, err := b.timedSetup(setupReps)
	if err != nil {
		return err
	}
	var wall, alloc, pointMs []float64
	var msgs int64
	if b.workload == "sweep-quick" {
		wall, alloc, pointMs = b.sweepLoop(in.golden)
	} else {
		wall, alloc, pointMs, msgs = b.pointLoop(in)
	}
	if len(wall) == 0 {
		return fmt.Errorf("no timed pass completed")
	}
	summarize("wall_s", "s", wall)
	summarize("alloc_mb", "MB", alloc)
	b.set("wall_s", median(wall), "s")
	b.set("alloc_mb", median(alloc), "MB")
	b.set("point_p50_ms", median(pointMs), "ms")
	t := tailPercentile(pointMs, 90)
	fmt.Fprintf(os.Stderr, "  point latency: p50 %.4g ms, p%.1f %.4g ms (%d of %d points beyond)\n",
		median(pointMs), t.P, t.Value, t.Beyond, t.N)
	b.set("point_p90_ms", t.Value, "ms")
	if msgs > 0 {
		fmt.Fprintf(os.Stderr, "  sim_msgs_per_s   %.6g simulated messages per host second (%d per pass)\n",
			float64(msgs)/median(wall), msgs)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "  peak_rss_mb      %.1f MB (reported, not gated: see README)\n", rss)
	return nil
}

// budgetLeft reports whether another pass may start: until the measured
// seconds are used up, and never past hardStopSec.
func (b *bench) budgetLeft(elapsed float64, passes, points int, minPts int) bool {
	if elapsed >= hardStopSec {
		return false
	}
	return passes == 0 || elapsed < b.seconds || points < minPts
}

// pointLoop runs whole passes over the points, closed loop, until the
// budget is used. It returns per-pass wall seconds and allocated MB, every
// point's host milliseconds, and the simulated messages in one pass.
func (b *bench) pointLoop(in inputs) (wall, alloc, pointMs []float64, msgs int64) {
	ref := make([]string, len(in.points))
	start := now()
	for pass := 0; b.budgetLeft(since(start).Seconds(), pass, len(pointMs), minPoints); pass++ {
		a0 := totalAllocMB()
		t := now()
		for i, p := range in.points {
			tp := now()
			o, err := p.run(nil)
			pointMs = append(pointMs, float64(since(tp).Nanoseconds())/1e6)
			if err == nil {
				err = p.check(o)
			}
			if err == nil {
				err = sameOutcome(p, &ref[i], o)
			}
			if b.outcome(err) && pass == 0 {
				msgs += o.Msgs
			}
		}
		wall = append(wall, since(t).Seconds())
		alloc = append(alloc, totalAllocMB()-a0)
	}
	d := passDigest(in.points, ref)
	fmt.Fprintf(os.Stderr, "  digest %s %d %s\n", b.workload, b.seed, d)
	if in.digest != "" {
		var err error
		if d != in.digest {
			err = fmt.Errorf("%s seed %d: simulated results digest %s, recorded %s", b.workload, b.seed, d, in.digest)
		}
		b.outcome(err)
	}
	return wall, alloc, pointMs, msgs
}

// sameOutcome records the first outcome of a point in *ref and fails any
// later one that differs: same inputs must give the same simulation.
func sameOutcome(p point, ref *string, o outcome) error {
	k := o.key()
	if *ref == "" {
		*ref = k
		return nil
	}
	if k != *ref {
		return fmt.Errorf("%s: simulated results differ between passes:\n  %s\n  %s", p.name, *ref, k)
	}
	return nil
}

// passDigest hashes every point's simulated results in order.
func passDigest(ps []point, keys []string) string {
	h := sha256.New()
	for i, p := range ps {
		fmt.Fprintf(h, "%s %s\n", p.name, keys[i])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// sweepOnce regenerates every experiment at -quick through SweepFunc on
// one worker per CPU, checking each against the golden and recording an
// emit span per experiment on tr (nil: none). It returns the
// wall seconds and each experiment's emit time in milliseconds after the
// sweep started.
func (b *bench) sweepOnce(golden map[string]string, tr *tracer, parent int) (float64, []float64) {
	ids := mpisim.Experiments()
	seen := map[string]bool{}
	var emitMs []float64
	t := now()
	err := mpisim.SweepFunc(mpisim.SweepConfig{Quick: true, Jobs: runtime.NumCPU()},
		func(r mpisim.SweepResult) error {
			emitMs = append(emitMs, float64(since(t).Nanoseconds())/1e6)
			tr.end(tr.begin("emit "+r.ID, parent))
			seen[r.ID] = true
			var err error
			if h := experimentHash(r.Figures); h != golden[r.ID] {
				err = fmt.Errorf("sweep-quick %s: output hash %s, golden %q", r.ID, h, golden[r.ID])
			}
			b.outcome(err)
			return nil
		})
	wall := since(t).Seconds()
	if err != nil {
		b.outcome(fmt.Errorf("sweep-quick: %w", err))
	}
	for _, id := range ids {
		if !seen[id] {
			b.outcome(fmt.Errorf("sweep-quick: %s never emitted", id))
		}
	}
	for _, id := range sortedKeys(golden) {
		if !contains(ids, id) {
			b.outcome(fmt.Errorf("sweep-quick: golden names unregistered experiment %s", id))
		}
	}
	return wall, emitMs
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// sweepLoop runs whole sweeps until the budget is used (at least one).
func (b *bench) sweepLoop(golden map[string]string) (wall, alloc, emitMs []float64) {
	start := now()
	for n := 0; b.budgetLeft(since(start).Seconds(), n, 0, 0); n++ {
		if n > 0 && since(start).Seconds()+wall[n-1] > hardStopSec {
			break
		}
		a0 := totalAllocMB()
		w, e := b.sweepOnce(golden, nil, 0)
		wall = append(wall, w)
		alloc = append(alloc, totalAllocMB()-a0)
		emitMs = append(emitMs, e...)
	}
	return wall, alloc, emitMs
}
