package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"mpicontend/internal/experiments"
	"mpicontend/internal/telemetry"
	"mpicontend/mpisim"
)

// traceDir holds the traced run's spans and CPU profile, relative to the
// repository root (ignored by git).
const traceDir = ".bench_build/perfbench/trace"

// layerCounts accumulates the simulated per-layer counts of traced
// simulations. Everything here is simulated, so it repeats exactly for a
// seed.
type layerCounts struct {
	msgs                       float64
	runs, spans, flights       float64
	injectNs                   float64
	acq, uncontended, waitNs   float64
	polls, usefulPolls, wasted float64
	unexpected                 float64
	cqAvgSum                   float64
	cqN                        float64
	partitions, aggregates     float64
	drops, retransmits         float64
	detectNs, recoverNs        []float64
}

// schedRuns counts run intervals on the recorder's sched track: each is
// one transition of a simthread to running.
func schedRuns(rec *telemetry.Recorder) (int, error) {
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Perfetto(), &tf); err != nil {
		return 0, fmt.Errorf("decode perfetto trace: %w", err)
	}
	n := 0
	for _, e := range tf.TraceEvents {
		if e.Cat == "sched" && e.Name == "run" {
			n++
		}
	}
	return n, nil
}

// add folds one traced simulation into the counts. o is nil for
// experiment probes, which report no result struct.
func (c *layerCounts) add(rec *telemetry.Recorder, o *outcome) error {
	prof := rec.Profile()
	msgs := float64(prof.CriticalPath.Messages)
	if o != nil && o.Msgs > 0 {
		msgs = float64(o.Msgs)
	}
	c.msgs += msgs
	runs, err := schedRuns(rec)
	if err != nil {
		return err
	}
	c.runs += float64(runs)
	spans := rec.Spans()
	c.spans += float64(len(spans))
	for _, s := range spans {
		switch s.Kind {
		case telemetry.SpanFlight:
			c.flights++
		case telemetry.SpanInject:
			c.injectNs += float64(s.End - s.Start)
		}
	}
	for _, l := range prof.Locks {
		c.acq += float64(l.Acquisitions)
		c.uncontended += float64(l.Uncontended)
		c.waitNs += l.Wait.MeanNs * float64(l.Wait.Count)
	}
	c.polls += float64(prof.Progress.Polls)
	c.usefulPolls += float64(prof.Progress.UsefulPolls)
	c.wasted += float64(prof.Progress.WastedLowAcq)
	c.unexpected += float64(prof.UnexpectedQueue.Count)
	if prof.CompletionQueue.Samples > 0 {
		c.cqAvgSum += prof.CompletionQueue.TimeAvg
		c.cqN++
	}
	if o == nil {
		c.partitions += prof.Partitioned.AggRatio * float64(prof.Partitioned.Trigger)
		c.aggregates += float64(prof.Partitioned.Trigger)
		return nil
	}
	c.partitions += float64(o.Part.Partitions)
	c.aggregates += float64(o.Part.Aggregates)
	if o.Net.Fault.Dropped > 0 {
		// Only lossy points: retransmits into a crashed rank's blackhole
		// answer no drop.
		c.drops += float64(o.Net.Fault.Dropped)
		c.retransmits += float64(o.Net.Retransmits)
	}
	if len(o.Recovery.Crashed) > 0 {
		c.detectNs = append(c.detectNs, float64(o.Recovery.DetectNs))
		c.recoverNs = append(c.recoverNs, float64(o.RecoverNs))
	}
	return nil
}

// ratio is a/b, or 0 when the base is empty.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianOr0 is the median, or 0 for an empty sample.
func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// report sets the simulated per-layer metrics.
func (c *layerCounts) report(b *bench) {
	b.set("sim.switches_per_msg", ratio(c.runs, c.msgs), "1/msg")
	b.set("simlock.acq_per_msg", ratio(c.acq, c.msgs), "1/msg")
	b.set("simlock.wait_ns_per_msg", ratio(c.waitNs, c.msgs), "sim_ns/msg")
	b.set("simlock.uncontended_frac", ratio(c.uncontended, c.acq), "ratio")
	b.set("mpi.polls_per_msg", ratio(c.polls, c.msgs), "1/msg")
	b.set("mpi.useful_poll_frac", ratio(c.usefulPolls, c.polls), "ratio")
	b.set("mpi.wasted_low_acq_per_msg", ratio(c.wasted, c.msgs), "1/msg")
	b.set("mpi.unexpected_per_msg", ratio(c.unexpected, c.msgs), "1/msg")
	b.set("mpi.cq_depth_avg", ratio(c.cqAvgSum, c.cqN), "count")
	b.set("mpi.part_agg_ratio", ratio(c.partitions, c.aggregates), "ratio")
	b.set("mpi.retransmits_per_drop", ratio(c.retransmits, c.drops), "ratio")
	b.set("mpi.ft_detect_ns", medianOr0(c.detectNs), "sim_ns")
	b.set("mpi.ft_recover_ns", medianOr0(c.recoverNs), "sim_ns")
	b.set("fabric.flights_per_msg", ratio(c.flights, c.msgs), "1/msg")
	b.set("fabric.inject_ns_per_msg", ratio(c.injectNs, c.msgs), "sim_ns/msg")
	b.set("fault.drops_per_msg", ratio(c.drops, c.msgs), "1/msg")
	b.set("telemetry.spans_per_msg", ratio(c.spans, c.msgs), "1/msg")
}

// traced is the traced run: layer probes, the workload untraced and then
// traced (telemetry recorder, spans, CPU profile), and the sweep layer's
// serial per-experiment pass. It reports every per-layer metric.
func (b *bench) traced() error {
	b.tr = newTracer()
	root := b.tr.begin("workload "+b.workload, 0)
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	sid := b.tr.begin("setup", root)
	in, err := b.setup()
	b.tr.end(sid)
	if err != nil {
		return err
	}

	for _, p := range probes() {
		v, err := runProbe(p, b.tr, root)
		if err != nil {
			return err
		}
		b.set(p.metric, v, "ns")
	}

	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", b.workload, b.seed))
	var counts layerCounts
	var sweepWall float64
	if b.workload == "sweep-quick" {
		sweepWall, err = b.tracedSweep(in.golden, base+"-cpu.pprof", &counts, root)
	} else {
		err = b.tracedPoints(in.points, base+"-cpu.pprof", &counts, root)
	}
	if err != nil {
		return err
	}
	counts.report(b)
	if err := b.experimentsPass(in, sweepWall, root); err != nil {
		return err
	}

	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate binary: %w", err)
	}
	shares, flat, err := profileShares(exe, base+"-cpu.pprof")
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "  cpu profile: %.2fs flat\n", flat)
	for _, l := range sortedKeys(shares) {
		b.set("cpu."+l+"_share", shares[l], "ratio")
	}
	b.tr.end(root)
	if err := b.tr.write(base + "-spans.json"); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "  wrote %s-spans.json and %s-cpu.pprof\n", base, base)
	return nil
}

// profiled runs fn under the CPU profiler, writing to path.
func profiled(path string, fn func() error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("start profile: %w", err)
	}
	ferr := fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return fmt.Errorf("write profile: %w", err)
	}
	return ferr
}

// tracedPoints runs untraced passes for the measured seconds, then one
// pass with a telemetry recorder on every point, all under the CPU
// profiler, and requires the traced simulations to match the untraced
// ones exactly.
func (b *bench) tracedPoints(ps []point, profPath string, counts *layerCounts, root int) error {
	ref := make([]string, len(ps))
	recs := make([]*telemetry.Recorder, len(ps))
	outs := make([]outcome, len(ps))
	var plainWall, plainAlloc []float64
	var tracedWall, tracedAlloc float64
	err := profiled(profPath, func() error {
		start := now()
		for pass := 0; b.budgetLeft(since(start).Seconds(), pass, 0, 0); pass++ {
			id := b.tr.begin("untraced pass", root)
			a0 := totalAllocMB()
			t := now()
			for i, p := range ps {
				o, err := p.run(nil)
				if err == nil {
					err = p.check(o)
				}
				if err == nil {
					err = sameOutcome(p, &ref[i], o)
				}
				b.outcome(err)
			}
			plainWall = append(plainWall, since(t).Seconds())
			plainAlloc = append(plainAlloc, totalAllocMB()-a0)
			b.tr.end(id)
		}
		pass := b.tr.begin("traced pass", root)
		a0 := totalAllocMB()
		t := now()
		for i, p := range ps {
			id := b.tr.begin("point "+p.name, pass)
			recs[i] = telemetry.New()
			o, err := p.run(recs[i])
			b.tr.end(id)
			outs[i] = o
			if err == nil && o.key() != ref[i] {
				err = fmt.Errorf("%s: telemetry changed the simulation:\n  %s\n  %s", p.name, ref[i], o.key())
			}
			b.outcome(err)
		}
		tracedWall, tracedAlloc = since(t).Seconds(), totalAllocMB()-a0
		b.tr.end(pass)
		return nil
	})
	if err != nil {
		return err
	}
	for i := range ps {
		if err := counts.add(recs[i], &outs[i]); err != nil {
			return err
		}
	}
	b.set("telemetry.overhead_x", tracedWall/median(plainWall), "x")
	b.set("telemetry.alloc_mb", tracedAlloc-median(plainAlloc), "MB")
	return nil
}

// tracedSweep times one untraced sweep and one traced sweep (spans per
// emitted experiment), both under the CPU profiler, then records every experiment's
// representative point with telemetry for the simulated counts. It
// returns the untraced sweep's wall seconds.
func (b *bench) tracedSweep(golden map[string]string, profPath string, counts *layerCounts, root int) (float64, error) {
	var plain, plainAlloc, tracedWall, tracedAlloc float64
	err := profiled(profPath, func() error {
		id := b.tr.begin("untraced sweep", root)
		a0 := totalAllocMB()
		plain, _ = b.sweepOnce(golden, nil, 0)
		plainAlloc = totalAllocMB() - a0
		b.tr.end(id)
		id = b.tr.begin("traced sweep", root)
		a0 = totalAllocMB()
		tracedWall, _ = b.sweepOnce(golden, b.tr, id)
		tracedAlloc = totalAllocMB() - a0
		b.tr.end(id)
		return nil
	})
	if err != nil {
		return 0, err
	}
	b.set("telemetry.overhead_x", tracedWall/plain, "x")
	b.set("telemetry.alloc_mb", tracedAlloc-plainAlloc, "MB")
	pid := b.tr.begin("experiment probes", root)
	for _, id := range mpisim.Experiments() {
		sid := b.tr.begin("probe "+id, pid)
		rec := telemetry.New()
		_, err := experiments.Probe(id, experiments.Options{Quick: true}, rec)
		b.tr.end(sid)
		if !b.outcome(err) {
			continue
		}
		if err := counts.add(rec, nil); err != nil {
			return 0, err
		}
	}
	b.tr.end(pid)
	return plain, nil
}

// experimentsPass times every experiment serially at -quick (checking its
// golden hash) and derives the sweep's parallel efficiency from the sum
// of those times and the wall of a sweep at one worker per CPU.
func (b *bench) experimentsPass(in inputs, sweepWall float64, root int) error {
	golden := in.golden
	if golden == nil {
		var err error
		if golden, err = loadGolden(); err != nil {
			return err
		}
	}
	if sweepWall == 0 {
		sid := b.tr.begin("sweep", root)
		sweepWall, _ = b.sweepOnce(golden, nil, 0)
		b.tr.end(sid)
	}
	pid := b.tr.begin("serial experiments", root)
	var serial float64
	for _, id := range mpisim.Experiments() {
		sid := b.tr.begin("experiment "+id, pid)
		t := now()
		figs, err := mpisim.RunExperimentMode(id, true, 0, mpisim.PollingProgress)
		d := since(t).Seconds()
		b.tr.end(sid)
		if err == nil && experimentHash(figs) != golden[id] {
			err = fmt.Errorf("experiment %s: output differs from the quick golden", id)
		}
		b.outcome(err)
		serial += d
		b.set("experiments."+id+".wall_s", d, "s")
	}
	b.tr.end(pid)
	b.set("sweep.parallel_eff", serial/(float64(runtime.NumCPU())*sweepWall), "ratio")
	return nil
}
