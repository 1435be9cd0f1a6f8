package workloads

import (
	"testing"

	"mpicontend/internal/machine"
	"mpicontend/internal/simlock"
)

func tp(lock simlock.Kind, threads int, bytes int64) ThroughputParams {
	return ThroughputParams{
		Lock: lock, Threads: threads, MsgBytes: bytes,
		Windows: 6, Binding: machine.Compact,
	}
}

func runTP(t *testing.T, p ThroughputParams) ThroughputResult {
	t.Helper()
	r, err := Throughput(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Messages == 0 || r.SimNs == 0 || r.RateMsgsPerSec <= 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	return r
}

func TestThroughputRunsAllLocks(t *testing.T) {
	for _, k := range []simlock.Kind{simlock.KindMutex, simlock.KindTicket, simlock.KindPriority} {
		r := runTP(t, tp(k, 4, 64))
		t.Logf("%v: %.0f msgs/s", k, r.RateMsgsPerSec)
	}
}

func TestThroughputSingleThreadBaseline(t *testing.T) {
	r := runTP(t, tp(simlock.KindNone, 1, 1))
	// Paper's order of magnitude: ~1-2 M msgs/s for tiny messages.
	if r.RateMsgsPerSec < 2e5 || r.RateMsgsPerSec > 2e7 {
		t.Errorf("single-thread small-message rate %.0f/s outside plausible envelope", r.RateMsgsPerSec)
	}
}

// TestMutexDegradesWithThreads reproduces Fig. 2a's headline: message rate
// drops as threads are added under the mutex.
func TestMutexDegradesWithThreads(t *testing.T) {
	r1 := runTP(t, tp(simlock.KindMutex, 1, 1))
	r8 := runTP(t, tp(simlock.KindMutex, 8, 1))
	if r8.RateMsgsPerSec >= r1.RateMsgsPerSec {
		t.Errorf("mutex rate should degrade: 1t %.0f vs 8t %.0f",
			r1.RateMsgsPerSec, r8.RateMsgsPerSec)
	}
}

// TestTicketBeatsMutexSmallMessages reproduces Fig. 8a's ordering at small
// sizes: ticket and priority outperform mutex with 8 threads.
func TestTicketBeatsMutexSmallMessages(t *testing.T) {
	m := runTP(t, tp(simlock.KindMutex, 8, 1))
	tk := runTP(t, tp(simlock.KindTicket, 8, 1))
	pr := runTP(t, tp(simlock.KindPriority, 8, 1))
	t.Logf("mutex %.0f ticket %.0f priority %.0f", m.RateMsgsPerSec, tk.RateMsgsPerSec, pr.RateMsgsPerSec)
	if tk.RateMsgsPerSec <= m.RateMsgsPerSec {
		t.Errorf("ticket (%.0f) should beat mutex (%.0f)", tk.RateMsgsPerSec, m.RateMsgsPerSec)
	}
	if pr.RateMsgsPerSec <= m.RateMsgsPerSec {
		t.Errorf("priority (%.0f) should beat mutex (%.0f)", pr.RateMsgsPerSec, m.RateMsgsPerSec)
	}
}

// TestLargeMessagesConverge: at 1MB the wire dominates and lock choice is
// negligible (paper: differences vanish past ~32KB).
func TestLargeMessagesConverge(t *testing.T) {
	m := runTP(t, ThroughputParams{Lock: simlock.KindMutex, Threads: 8,
		MsgBytes: 1 << 20, Windows: 2, Window: 16})
	tk := runTP(t, ThroughputParams{Lock: simlock.KindTicket, Threads: 8,
		MsgBytes: 1 << 20, Windows: 2, Window: 16})
	ratio := tk.RateMsgsPerSec / m.RateMsgsPerSec
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("1MB rates should converge; ticket/mutex = %.2f", ratio)
	}
}

// TestBiasFactors reproduces Fig. 3a: mutex biased at core (~2x) and socket
// (~1.25x) level; ticket ~1 or below.
func TestBiasFactors(t *testing.T) {
	p := tp(simlock.KindMutex, 8, 64)
	p.TraceRank = 1 // receiver rank
	m := runTP(t, p)
	if m.FairSamples < 50 {
		t.Fatalf("too few fairness samples: %d", m.FairSamples)
	}
	t.Logf("mutex bias core=%.2f socket=%.2f (samples %d)", m.BiasCore, m.BiasSocket, m.FairSamples)
	if m.BiasCore < 1.3 {
		t.Errorf("mutex core bias %.2f, want > 1.3", m.BiasCore)
	}
	if m.BiasSocket < 1.05 {
		t.Errorf("mutex socket bias %.2f, want > 1.05", m.BiasSocket)
	}

	p.Lock = simlock.KindTicket
	tk := runTP(t, p)
	t.Logf("ticket bias core=%.2f socket=%.2f (samples %d)", tk.BiasCore, tk.BiasSocket, tk.FairSamples)
	if tk.BiasCore > 1.1 {
		t.Errorf("ticket core bias %.2f, want ~<=1", tk.BiasCore)
	}
}

// TestDanglingRequests reproduces Fig. 5a: mutex piles up dangling
// requests; ticket keeps them low.
func TestDanglingRequests(t *testing.T) {
	pm := tp(simlock.KindMutex, 8, 64)
	pm.TraceRank = 1
	m := runTP(t, pm)
	pt := tp(simlock.KindTicket, 8, 64)
	pt.TraceRank = 1
	tk := runTP(t, pt)
	t.Logf("dangling avg: mutex %.1f (max %d) ticket %.1f (max %d)",
		m.DanglingAvg, m.DanglingMax, tk.DanglingAvg, tk.DanglingMax)
	if m.DanglingAvg <= tk.DanglingAvg {
		t.Errorf("mutex dangling (%.1f) should exceed ticket (%.1f)",
			m.DanglingAvg, tk.DanglingAvg)
	}
}

// TestScatterWorseThanCompact reproduces Fig. 2b.
func TestScatterWorseThanCompact(t *testing.T) {
	pc := tp(simlock.KindMutex, 4, 1)
	pc.Binding = machine.Compact
	c := runTP(t, pc)
	ps := tp(simlock.KindMutex, 4, 1)
	ps.Binding = machine.Scatter
	s := runTP(t, ps)
	t.Logf("compact %.0f scatter %.0f", c.RateMsgsPerSec, s.RateMsgsPerSec)
	if s.RateMsgsPerSec >= c.RateMsgsPerSec {
		t.Errorf("scatter (%.0f) should be slower than compact (%.0f)",
			s.RateMsgsPerSec, c.RateMsgsPerSec)
	}
}

func TestLatencyBasics(t *testing.T) {
	r, err := Latency(LatencyParams{Lock: simlock.KindNone, Threads: 1, MsgBytes: 1, Iters: 20})
	if err != nil {
		t.Fatal(err)
	}
	// One-way tiny-message latency should be in the low microseconds.
	if r.AvgOneWayUs < 0.5 || r.AvgOneWayUs > 20 {
		t.Errorf("single-thread latency %.2fus outside envelope", r.AvgOneWayUs)
	}
}

// TestLatencyTicketBeatsMutex reproduces Fig. 8b: with 8 threads the ticket
// lock cuts latency versus mutex.
func TestLatencyTicketBeatsMutex(t *testing.T) {
	m, err := Latency(LatencyParams{Lock: simlock.KindMutex, Threads: 8, MsgBytes: 1, Iters: 30})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := Latency(LatencyParams{Lock: simlock.KindTicket, Threads: 8, MsgBytes: 1, Iters: 30})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("latency mutex %.2fus ticket %.2fus", m.AvgOneWayUs, tk.AvgOneWayUs)
	if tk.AvgOneWayUs >= m.AvgOneWayUs {
		t.Errorf("ticket latency (%.2f) should beat mutex (%.2f)", tk.AvgOneWayUs, m.AvgOneWayUs)
	}
}

func TestN2NRuns(t *testing.T) {
	for _, k := range []simlock.Kind{simlock.KindTicket, simlock.KindPriority} {
		r, err := N2N(N2NParams{Lock: k, Procs: 4, Threads: 4, MsgBytes: 64, Windows: 4})
		if err != nil {
			t.Fatal(err)
		}
		if r.Messages == 0 || r.RateMsgsPerSec <= 0 {
			t.Fatalf("degenerate n2n result: %+v", r)
		}
		t.Logf("%v: %.0f msgs/s, unexpected %d", k, r.RateMsgsPerSec, r.UnexpectedHits)
	}
}

// TestN2NPriorityCompetitive checks the Fig. 6b comparison. Known
// deviation (documented in EXPERIMENTS.md): the paper reports priority
// +33% over ticket below 32 KB via avoided unexpected-queue detours; in
// this simulator the benchmark's self-clocked windows keep the posted-
// receive pools full, so that mechanism does not engage and priority lands
// within ~20% below ticket (its two extra atomic line transfers per entry).
// We assert the reproducible part: priority stays competitive with ticket
// and both clearly beat the mutex under N2N load.
func TestN2NPriorityCompetitive(t *testing.T) {
	run := func(k simlock.Kind) N2NResult {
		r, err := N2N(N2NParams{Lock: k, Procs: 4, Threads: 8, MsgBytes: 64, Windows: 6})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	tk, pr, mx := run(simlock.KindTicket), run(simlock.KindPriority), run(simlock.KindMutex)
	t.Logf("n2n ticket %.0f priority %.0f mutex %.0f (unexpected: t=%d p=%d m=%d)",
		tk.RateMsgsPerSec, pr.RateMsgsPerSec, mx.RateMsgsPerSec,
		tk.UnexpectedHits, pr.UnexpectedHits, mx.UnexpectedHits)
	if pr.RateMsgsPerSec < tk.RateMsgsPerSec*0.75 {
		t.Errorf("priority (%.0f) fell too far below ticket (%.0f) on N2N",
			pr.RateMsgsPerSec, tk.RateMsgsPerSec)
	}
	if pr.RateMsgsPerSec <= mx.RateMsgsPerSec {
		t.Errorf("priority (%.0f) should beat mutex (%.0f) on N2N",
			pr.RateMsgsPerSec, mx.RateMsgsPerSec)
	}
}

func TestRMARunsAllOps(t *testing.T) {
	for _, op := range []RMAOp{OpPut, OpGet, OpAcc} {
		r, err := RMA(RMAParams{Lock: simlock.KindTicket, Op: op, ElemBytes: 64, Ops: 4})
		if err != nil {
			t.Fatal(err)
		}
		if r.RateElemPerSec <= 0 {
			t.Fatalf("%v: degenerate result %+v", op, r)
		}
	}
}

// TestRMATicketBeatsMutex reproduces Fig. 9: with async progress threads,
// fair arbitration wins big.
func TestRMATicketBeatsMutex(t *testing.T) {
	m, err := RMA(RMAParams{Lock: simlock.KindMutex, Op: OpPut, ElemBytes: 64, Ops: 8})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := RMA(RMAParams{Lock: simlock.KindTicket, Op: OpPut, ElemBytes: 64, Ops: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("rma put: mutex %.0f ticket %.0f elem/s (ratio %.1fx)",
		m.RateElemPerSec, tk.RateElemPerSec, tk.RateElemPerSec/m.RateElemPerSec)
	if tk.RateElemPerSec <= m.RateElemPerSec {
		t.Errorf("ticket RMA (%.0f) should beat mutex (%.0f)", tk.RateElemPerSec, m.RateElemPerSec)
	}
}

func TestRMAOpString(t *testing.T) {
	if OpPut.String() != "Put" || OpGet.String() != "Get" || OpAcc.String() != "Accumulate" {
		t.Fatal("op names changed")
	}
}

// TestN2NPartitioned runs the partitioned variant across the lock kinds
// and checks the aggregation accounting: same message volume as the batch
// shape, but one trigger (and one aggregated transfer) per peer per window
// with every other Pready lock-free.
func TestN2NPartitioned(t *testing.T) {
	for _, k := range []simlock.Kind{simlock.KindMutex, simlock.KindTicket, simlock.KindPriority, simlock.KindCohort} {
		p := N2NParams{
			Lock: k, Procs: 3, Threads: 4, MsgBytes: 64,
			Window: 8, Windows: 3, PerThreadTags: true, Partitioned: true,
		}
		r, err := N2N(p)
		if err != nil {
			t.Fatal(err)
		}
		if r.Messages == 0 || r.SimNs == 0 {
			t.Fatalf("%v: degenerate result: %+v", k, r)
		}
		p = p.withDefaults()
		peers := p.Procs - 1
		parts := p.Window / peers
		wantAgg := int64(p.Procs) * int64(p.Threads) * int64(peers) * int64(p.Windows)
		if r.Part.Aggregates != wantAgg {
			t.Errorf("%v: %d aggregates, want %d (one per peer per window per thread)", k, r.Part.Aggregates, wantAgg)
		}
		if r.Part.PreadyTrigger != wantAgg {
			t.Errorf("%v: %d triggers, want %d", k, r.Part.PreadyTrigger, wantAgg)
		}
		if want := wantAgg * int64(parts-1); r.Part.PreadyFast != want {
			t.Errorf("%v: %d lock-free Preadys, want %d", k, r.Part.PreadyFast, want)
		}
		if r.Part.Partitions != r.Messages {
			t.Errorf("%v: %d partitions moved, want the full message volume %d", k, r.Part.Partitions, r.Messages)
		}
	}
}
