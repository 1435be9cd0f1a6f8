package telemetry

import (
	"fmt"
	"strings"
	"testing"
)

// holds records one hold per thread id on a fresh "cs" lock, 100 ns apart.
func holds(threads ...int) *Recorder {
	r := New()
	id := r.RegisterLock("cs")
	for i, th := range threads {
		at := int64(i * 100)
		r.LockHold(id, th, ClassHigh, false, 0, th, at, at+50)
	}
	return r
}

func TestTimelineRender(t *testing.T) {
	r := holds(0, 1, 0, 1, 0, 1, 0, 1, 0, 1)
	out := r.Timeline("cs", 20)
	if !strings.Contains(out, "thread 0") || !strings.Contains(out, "thread 1") {
		t.Fatalf("render missing threads:\n%s", out)
	}
	if !strings.Contains(out, "50.0%") {
		t.Fatalf("shares wrong:\n%s", out)
	}
	if !strings.Contains(out, "(10 acquisitions)") || strings.Count(out, "|") != 2 {
		t.Fatalf("header or row wrong:\n%s", out)
	}
}

func TestTimelineMonopolyMatchesProfile(t *testing.T) {
	// 8 holds by thread 0, then 2 by thread 1.
	r := holds(0, 0, 0, 0, 0, 0, 0, 0, 1, 1)
	out := r.Timeline("cs", 10)
	lp := r.Profile().Locks[0]
	if lp.LongestRunThread != 8 || lp.MaxThreadShare != 0.8 {
		t.Fatalf("profile run=%d share=%v, want 8 and 0.8", lp.LongestRunThread, lp.MaxThreadShare)
	}
	want := fmt.Sprintf("longest same-thread run: %d   max thread share: %.1f%%",
		lp.LongestRunThread, 100*lp.MaxThreadShare)
	if !strings.Contains(out, want) {
		t.Fatalf("render disagrees with LockProfile (want %q):\n%s", want, out)
	}
	if !strings.Contains(out, "|0000000011|") {
		t.Fatalf("ownership row wrong:\n%s", out)
	}
}

func TestTimelineEmpty(t *testing.T) {
	r := New()
	r.RegisterLock("cs")
	for _, out := range []string{r.Timeline("cs", 10), r.Timeline("other", 10), (*Recorder)(nil).Timeline("cs", 10)} {
		if !strings.Contains(out, "no holds") {
			t.Fatalf("empty render = %q", out)
		}
	}
}
