package main

import (
	"errors"
	"math"
	"strings"
	"testing"

	"mpicontend/internal/mpi"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n      int
		wantP  float64
		beyond int
	}{
		// 110 samples: p90 sits at rank 98.1, leaving 11 above it.
		{110, 90, 11},
		// 1000 samples: p90 sits at rank 899.1, leaving 100 above it.
		{1000, 90, 100},
		// 33 experiments: p90 has 3 beyond, so the rule falls back to the
		// highest rank with 10 above it, rank 22 of 0..32 (p68.75).
		{33, 68.75, 10},
		// 21 samples: rank 10 of 0..20 is the median with 10 above.
		{21, 50, 10},
		// Too few samples for any tail: the median, flagged by Beyond.
		{8, 50, 4},
	}
	for _, c := range cases {
		got := tailPercentile(seq(c.n), 90)
		if math.Abs(got.P-c.wantP) > 1e-9 || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d: got p%.4g with %d beyond (n=%d), want p%.4g with %d beyond",
				c.n, got.P, got.Beyond, got.N, c.wantP, c.beyond)
		}
		if want := percentile(seq(c.n), got.P); got.Value != want {
			t.Errorf("n=%d: value %v, want %v", c.n, got.Value, want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {100, 4}, {25, 1.75}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestParseGolden(t *testing.T) {
	h := strings.Repeat("ab", 32)
	m, err := parseGolden(strings.NewReader("# comment\n\nfig2a " + h + "\n  fig8a " + h + "  \n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m["fig2a"] != h || m["fig8a"] != h {
		t.Fatalf("parsed %v", m)
	}
	for _, bad := range []string{
		"fig2a\n",                            // no hash
		"fig2a " + h + " extra\n",            // three fields
		"fig2a abc\n",                        // short hash
		"fig2a " + h + "\nfig2a " + h + "\n", // repeated id
		"# only comments\n",                  // empty
	} {
		if _, err := parseGolden(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestFailedFracAccounting(t *testing.T) {
	b := &bench{}
	for _, err := range []error{nil, errors.New("wrong count"), nil, nil, errors.New("watchdog")} {
		b.outcome(err)
	}
	if b.attempted != 5 || b.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 5 and 2", b.attempted, b.failed)
	}
	if got := failedFrac(b.attempted, b.failed); got != 0.4 {
		t.Fatalf("failed_frac %v, want 0.4", got)
	}
	if got := failedFrac(0, 0); got != 1 {
		t.Fatalf("failed_frac with nothing attempted = %v, want 1", got)
	}
}

// cannedTop is `go tool pprof -top` output in the toolchain's format.
const cannedTop = `File: perfbench
Type: cpu
Duration: 2.10s, Total samples = 2s (95.24%)
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
     0.60s 30.00% 30.00%      0.70s 35.00%  runtime.chansend
     0.20s 10.00% 40.00%      0.20s 10.00%  internal/runtime/atomic.(*Uint32).Load (inline)
     0.40s 20.00% 60.00%      1.20s 60.00%  mpicontend/internal/sim.(*Engine).Run
     0.30s 15.00% 75.00%      0.50s 25.00%  mpicontend/internal/mpi.(*Proc).pollOnce
     0.10s  5.00% 80.00%      0.10s  5.00%  mpicontend/internal/mpi/vci.Select
     0.10s  5.00% 85.00%      0.10s  5.00%  mpicontend/internal/simlock.(*TicketLock).Acquire
      50ms  2.50% 87.50%       50ms  2.50%  mpicontend/internal/fabric.(*Endpoint).Send
      50ms  2.50% 90.00%       50ms  2.50%  mpicontend/internal/telemetry.(*Recorder).Poll
     0.10s  5.00% 95.00%      0.10s  5.00%  mpicontend/internal/workloads.runN2NThread
     0.10s  5.00%   100%      0.10s  5.00%  sync.(*Mutex).Lock
         0     0%   100%      1.90s 95.00%  main.main
`

func TestFoldTop(t *testing.T) {
	shares, total, err := foldTop(cannedTop)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-2) > 1e-9 {
		t.Fatalf("total %v s, want 2", total)
	}
	want := map[string]float64{"runtime": 0.4, "sim": 0.2, "mpi": 0.2, "simlock": 0.05,
		"fabric": 0.025, "telemetry": 0.025, "other": 0.1}
	sum := 0.0
	for k, v := range want {
		if math.Abs(shares[k]-v) > 1e-9 {
			t.Errorf("%s share %v, want %v", k, shares[k], v)
		}
	}
	for _, v := range shares {
		sum += v
	}
	if len(shares) != len(want) || math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares %v sum to %v over %d layers", shares, sum, len(shares))
	}
	if _, _, err := foldTop("no header here\n"); err == nil {
		t.Error("accepted text without a header row")
	}
}

func TestFrameLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.gopark":                          "runtime",
		"internal/runtime/syscall.Syscall6":       "runtime",
		"mpicontend/internal/sim.(*Thread).Sleep": "sim",
		"mpicontend/internal/mpi/vci.Select":      "mpi",
		"mpicontend/mpisim.SweepFunc":             "",
		"runtimex.foo":                            "",
		"main.main":                               "",
	} {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestRecoveryChecksumLine(t *testing.T) {
	ps, err := buildPoints("chaos-recovery", 7)
	if err != nil {
		t.Fatal(err)
	}
	var p point
	for _, q := range ps {
		if q.rec != nil {
			p = q
			break
		}
	}
	dead := p.rec.Fault.Crashes[0].Rank
	o := outcome{SimNs: 1, Survivors: 3, Recovery: mpiRecovery(dead)}
	for r := 0; r < 4; r++ {
		if r != dead {
			o.Checksum += ringSum(r, p.rec.Iters)
		}
	}
	o.Checksum += ringSum(dead, 16) // adopted at the iteration-16 checkpoint
	if err := p.check(o); err != nil {
		t.Fatalf("consistent line rejected: %v", err)
	}
	o.Checksum++ // one survivor off by one
	if err := p.check(o); err == nil {
		t.Fatal("inconsistent checksum accepted")
	}
}

func TestPointsFromSeed(t *testing.T) {
	for _, w := range workloadNames[1:] {
		a, err := buildPoints(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildPoints(w, 3)
		c, _ := buildPoints(w, 4)
		if len(a) < 16 || len(a) != len(c) {
			t.Errorf("%s: %d and %d points per pass", w, len(a), len(c))
		}
		same, differ := true, false
		for i := range a {
			same = same && seedOf(a[i]) == seedOf(b[i])
			differ = differ || seedOf(a[i]) != seedOf(c[i])
		}
		if !same || !differ {
			t.Errorf("%s: same seed same inputs %v, other seed other inputs %v", w, same, differ)
		}
	}
}

func seedOf(p point) uint64 {
	switch {
	case p.tp != nil:
		return p.tp.Seed
	case p.n2n != nil:
		return p.n2n.Seed
	default:
		return p.rec.Seed
	}
}

// mpiRecovery is the fault-tolerance outcome of one detected, repaired
// crash of rank dead.
func mpiRecovery(dead int) mpi.RecoveryStats {
	return mpi.RecoveryStats{Crashed: []int{dead}, DetectNs: 1, Shrinks: 1}
}
