package workloads

import (
	"testing"

	"mpicontend/internal/machine"
	"mpicontend/internal/simlock"
	"mpicontend/internal/telemetry"
)

// lockProfile returns the telemetry profile of the named lock and its
// lock id.
func lockProfile(t *testing.T, rec *telemetry.Recorder, name string) (telemetry.LockProfile, int32) {
	t.Helper()
	for i, lp := range rec.Profile().Locks {
		if lp.Name == name {
			return lp, int32(i)
		}
	}
	t.Fatalf("no lock %q recorded", name)
	return telemetry.LockProfile{}, -1
}

// TestDebugGrantStream dissects the receiver-side acquisition stream under
// the mutex to understand arbitration composition (run with -v).
func TestDebugGrantStream(t *testing.T) {
	rec := telemetry.New()
	r, err := Throughput(ThroughputParams{
		Lock: simlock.KindMutex, Threads: 8, MsgBytes: 64,
		Windows: 4, TraceRank: 1, Binding: machine.Compact, Tel: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	lp, id := lockProfile(t, rec, "cs[r1]")
	t.Logf("rate %.0f biasCore=%.2f biasSock=%.2f (samples %d)",
		r.RateMsgsPerSec, r.BiasCore, r.BiasSocket, r.FairSamples)
	t.Logf("acquisitions=%d uncontended=%d longestRun=%d maxShare=%.3f places=%v",
		lp.Acquisitions, lp.Uncontended, lp.LongestRunThread, lp.MaxThreadShare, lp.Places)

	// Inter-acquisition gap histogram: who wins after a release? ~<200ns
	// gaps are spinner/steal wins, ~2500 gaps are futex-wake handoffs.
	gapHist := map[string]int{}
	last := int64(-1)
	for _, s := range rec.Spans() {
		if s.Kind != telemetry.SpanHold || s.Lock != id {
			continue
		}
		if last >= 0 {
			var bucket string
			switch gap := s.Start - last; {
			case gap < 200:
				bucket = "<200"
			case gap < 600:
				bucket = "200-600"
			case gap < 1500:
				bucket = "600-1500"
			case gap < 3500:
				bucket = "1500-3500"
			default:
				bucket = ">3500"
			}
			gapHist[bucket]++
		}
		last = s.Start
	}
	t.Logf("gap histogram: %v", gapHist)
}

// TestDebugRMAGrants dissects rank-0 lock traffic in the RMA benchmark.
func TestDebugRMAGrants(t *testing.T) {
	for _, k := range []simlock.Kind{simlock.KindMutex, simlock.KindTicket} {
		rec := telemetry.New()
		r, err := RMA(RMAParams{Lock: k, Op: OpPut, ElemBytes: 64, Ops: 8, Tel: rec})
		if err != nil {
			t.Fatal(err)
		}
		lp, _ := lockProfile(t, rec, "cs[r0]")
		t.Logf("%v: rate=%.0f acquisitions=%d high=%d low=%d places=%v simNs=%d",
			k, r.RateElemPerSec, lp.Acquisitions, lp.HighAcq, lp.LowAcq, lp.Places, r.SimNs)
	}
}

// TestDebugN2NClasses inspects acquisition class composition under the
// priority lock in the N2N benchmark.
func TestDebugN2NClasses(t *testing.T) {
	for _, k := range []simlock.Kind{simlock.KindTicket, simlock.KindPriority} {
		rec := telemetry.New()
		r, err := N2N(N2NParams{Lock: k, Procs: 4, Threads: 8, MsgBytes: 64, Windows: 6,
			Mode: N2NStream, Tel: rec})
		if err != nil {
			t.Fatal(err)
		}
		lp, _ := lockProfile(t, rec, "cs[r0]")
		t.Logf("%v: rate=%.0f acquisitions=%d high=%d low=%d handoff(avg=%.0f max=%d) unexpected=%d",
			k, r.RateMsgsPerSec, lp.Acquisitions, lp.HighAcq, lp.LowAcq,
			lp.Handoff.MeanNs, lp.Handoff.MaxNs, r.UnexpectedHits)
	}
}

// TestDebugN2NWindowDepth sweeps the in-flight window to find where the
// priority lock's request-generation promotion pays off.
func TestDebugN2NWindowDepth(t *testing.T) {
	for _, win := range []int{3, 6, 9, 18} {
		var line string
		for _, k := range []simlock.Kind{simlock.KindTicket, simlock.KindPriority} {
			r, err := N2N(N2NParams{Lock: k, Procs: 4, Threads: 8, MsgBytes: 64,
				Window: win, Windows: 12, Mode: N2NStream})
			if err != nil {
				t.Fatal(err)
			}
			line += k.String() + "=" + itoa(int64(r.RateMsgsPerSec)) + " unexp=" + itoa(r.UnexpectedHits) + "  "
		}
		t.Logf("window=%d: %s", win, line)
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [24]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// TestDebugN2NTagged tries per-thread tagged pairing (shallow match pools).
func TestDebugN2NTagged(t *testing.T) {
	for _, win := range []int{3, 6, 12} {
		var line string
		for _, k := range []simlock.Kind{simlock.KindTicket, simlock.KindPriority} {
			r, err := N2N(N2NParams{Lock: k, Procs: 4, Threads: 8, MsgBytes: 64,
				Window: win, Windows: 12, Mode: N2NStream, PerThreadTags: true})
			if err != nil {
				t.Fatal(err)
			}
			line += k.String() + "=" + itoa(int64(r.RateMsgsPerSec)) + " unexp=" + itoa(r.UnexpectedHits) + "  "
		}
		t.Logf("tagged window=%d: %s", win, line)
	}
}

// TestDebugN2NFreeRun tries free-running send windows: sends gated only by
// send completion, receives reposted independently.
func TestDebugN2NFreeRun(t *testing.T) {
	for _, k := range []simlock.Kind{simlock.KindTicket, simlock.KindPriority, simlock.KindMutex} {
		r, err := N2N(N2NParams{Lock: k, Procs: 4, Threads: 8, MsgBytes: 64,
			Window: 9, Windows: 12, Mode: N2NFreeRun})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("freerun %v: rate=%.0f unexp=%d", k, r.RateMsgsPerSec, r.UnexpectedHits)
	}
}
