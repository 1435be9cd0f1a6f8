package workloads

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"mpicontend/internal/fault"
	"mpicontend/internal/mpi"
	"mpicontend/internal/mpi/vci"
	"mpicontend/internal/sim"
	"mpicontend/internal/simlock"
	"mpicontend/internal/telemetry"
)

var updateCounters = flag.Bool("update", false,
	"rewrite internal/workloads/testdata/counters.txt from the current counters")

const countersPath = "testdata/counters.txt"

// Which counters a golden line carries beyond the ones every point has.
const (
	colsBase     = iota
	colsDrop     // + dropped packets and retransmits
	colsRecovery // + detection latency, shrinks and the agreed checksum
)

// workRun is what one run of a counter point reports. Every field must be
// the same whether or not telemetry is attached.
type workRun struct {
	msgs, simNs int64
	engine      sim.Stats
	net         mpi.NetStats
	// Recovery points only.
	detectNs, shrinks, checksum int64
}

// counterPoint is one pinned point shape at seed 1.
type counterPoint struct {
	name string
	cols int
	// budget is the ceiling on coroutine resumes per message (0 = none).
	budget float64
	run    func(tel *telemetry.Recorder) (workRun, error)
}

// counterPoints are perfbench's point shapes at seed 1 under each lock
// kind they sweep: the fig. 8a shape (2 ranks x 8 threads, 64 B, 1 VCI,
// polling); the N2N shape (4 x 8 threads, 2 KiB, 16 VCIs, continuation
// progress), eager and partitioned; the same p2p path at 512 B under 1%
// drops; and a 4-rank checkpointing ring that loses rank 2 at 45 µs.
func counterPoints() []counterPoint {
	var ps []counterPoint
	locks := []simlock.Kind{simlock.KindMutex, simlock.KindTicket, simlock.KindPriority, simlock.KindCLH}
	throughput := func(p ThroughputParams) func(*telemetry.Recorder) (workRun, error) {
		return func(tel *telemetry.Recorder) (workRun, error) {
			p.Tel = tel
			r, err := Throughput(p)
			return workRun{msgs: r.Messages, simNs: r.SimNs, engine: r.Engine, net: r.Net}, err
		}
	}
	for _, lk := range locks {
		p := ThroughputParams{Lock: lk, Threads: 8, MsgBytes: 64, Window: 64, Windows: 4, Seed: 1}
		ps = append(ps, counterPoint{"p2p/" + lk.String(), colsBase, 15, throughput(p)})
	}
	for _, part := range []bool{false, true} {
		for _, lk := range locks {
			p := N2NParams{Lock: lk, Procs: 4, Threads: 8, MsgBytes: 2048, Window: 33, Windows: 1,
				VCIs: 16, VCIPolicy: vci.Explicit, Progress: mpi.ProgressContinuation, Partitioned: part, Seed: 1}
			name, budget := "n2n/eager/"+lk.String(), 25.0
			if part {
				p.Windows = 8
				name, budget = "n2n/partitioned/"+lk.String(), 7
			}
			ps = append(ps, counterPoint{name, colsBase, budget, func(tel *telemetry.Recorder) (workRun, error) {
				p.Tel = tel
				r, err := N2N(p)
				return workRun{msgs: r.Messages, simNs: r.SimNs, engine: r.Engine, net: r.Net}, err
			}})
		}
	}
	for _, lk := range locks {
		p := ThroughputParams{Lock: lk, Threads: 8, MsgBytes: 512, Window: 64, Windows: 2, Seed: 1,
			Fault: fault.Config{DropProb: 0.01, WatchdogNs: 50_000_000}}
		ps = append(ps, counterPoint{"chaos/drop/" + lk.String(), colsDrop, 0, throughput(p)})
	}
	for _, lk := range locks[1:] {
		p := RecoveryParams{Lock: lk, Procs: 4, Iters: 64, Kernel: KernelRing,
			Strategy: RecoverCheckpoint, CkptInterval: 8, Seed: 1,
			Fault: fault.Config{Crashes: []fault.CrashSpec{{Rank: 2, AtNs: 45_000}}}}
		ps = append(ps, counterPoint{"chaos/recovery/" + lk.String(), colsRecovery, 0,
			func(tel *telemetry.Recorder) (workRun, error) {
				p.Tel = tel
				r, err := Recovery(p)
				return workRun{simNs: r.SimNs, engine: r.Engine, net: r.Net,
					detectNs: r.Recovery.DetectNs, shrinks: r.Recovery.Shrinks, checksum: r.Checksum}, err
			}})
	}
	return ps
}

// line renders the point's golden line: its name, then its counters as
// key=value pairs. Recovery reports no message count.
func (pt counterPoint) line(r workRun, lockAcq int64) string {
	var b strings.Builder
	b.WriteString(pt.name)
	if pt.cols != colsRecovery {
		fmt.Fprintf(&b, " msgs=%d", r.msgs)
	}
	fmt.Fprintf(&b, " sim_ns=%d events=%d resumes=%d inline_sleeps=%d elided_wakes=%d lock_acq=%d",
		r.simNs, r.engine.Events, r.engine.Resumes, r.engine.InlineSleeps, r.engine.ElidedWakes, lockAcq)
	switch pt.cols {
	case colsDrop:
		fmt.Fprintf(&b, " dropped=%d retransmits=%d", r.net.Fault.Dropped, r.net.Retransmits)
	case colsRecovery:
		fmt.Fprintf(&b, " detect_ns=%d shrinks=%d checksum=%d", r.detectNs, r.shrinks, r.checksum)
	}
	return b.String()
}

// readCounters parses the golden file into point name -> line.
func readCounters(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(countersPath)
	if err != nil {
		t.Fatalf("no golden file (run with -update to create): %v", err)
	}
	defer f.Close()
	m := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		m[name] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestWorkCounters pins the simulator's deterministic work on the shapes
// of perfbench's four workloads at seed 1: messages, simulated time, the
// engine's events, resumes and fast-path hits, runtime lock acquisitions,
// and the transport and fault-tolerance counters of the chaos points. The
// counters need no noise band, so any change to how much work a message
// costs shows up here exactly; host time is perfbench's to measure.
//
// After an *intentional* change to the counters, regenerate the golden
// with
//
//	go test ./internal/workloads -run TestWorkCounters -update
//
// and commit the rewritten testdata/counters.txt alongside the change.
// The resume budgets are hard bounds that -update cannot bless.
func TestWorkCounters(t *testing.T) {
	got := map[string]string{}
	var order []string
	for _, pt := range counterPoints() {
		plain, err := pt.run(nil)
		if err != nil {
			t.Fatalf("%s: %v", pt.name, err)
		}
		rec := telemetry.New()
		traced, err := pt.run(rec)
		if err != nil {
			t.Fatalf("%s traced: %v", pt.name, err)
		}
		// Tracing only observes: the traced run must do the same work.
		if traced != plain {
			t.Errorf("%s: telemetry changed the run:\n traced   %+v\n untraced %+v", pt.name, traced, plain)
		}
		if pt.budget > 0 {
			if per := float64(plain.engine.Resumes) / float64(plain.msgs); per > pt.budget {
				t.Errorf("%s: %.2f resumes per message, budget %v", pt.name, per, pt.budget)
			}
		}
		var acq int64
		for _, l := range rec.Profile().Locks {
			acq += l.Acquisitions
		}
		got[pt.name] = pt.line(plain, acq)
		order = append(order, pt.name)
	}

	if *updateCounters {
		if t.Failed() {
			t.Fatalf("%s not rewritten: fix the failures above first", countersPath)
		}
		var b strings.Builder
		b.WriteString("# Exact work counters at seed 1 on perfbench's point shapes (see\n")
		b.WriteString("# counters_test.go; regenerate with:\n")
		b.WriteString("# go test ./internal/workloads -run TestWorkCounters -update)\n")
		for _, name := range order {
			b.WriteString(got[name] + "\n")
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(countersPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d points)", countersPath, len(order))
		return
	}

	want := readCounters(t)
	for _, name := range order {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: not in golden file (new point? run -update)", name)
		}
	}
	for name, w := range want {
		switch g, ok := got[name]; {
		case !ok:
			t.Errorf("%s: in golden file but no longer run (run -update)", name)
		case g != w:
			t.Errorf("work counters changed — if intentional, rerun with -update:\n golden %s\n got    %s", w, g)
		}
	}
}
