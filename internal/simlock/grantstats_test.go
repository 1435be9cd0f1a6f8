package simlock

import (
	"math"
	"testing"

	"mpicontend/internal/machine"
)

func place(sock, core int) machine.Place { return machine.Place{Node: 0, Socket: sock, Core: core} }

func grant(id int, p machine.Place, waiters ...machine.Place) GrantInfo {
	return GrantInfo{ThreadID: id, Place: p, Waiters: waiters}
}

func TestGrantStatsMonopolizingHolder(t *testing.T) {
	var s GrantStats
	w := []machine.Place{place(0, 1), place(1, 0)}
	for i := 0; i < 10; i++ {
		s.Observe(grant(0, place(0, 0), w...), 0)
	}
	if s.Samples() != 9 { // first grant only seeds prev
		t.Fatalf("samples = %d, want 9", s.Samples())
	}
	if s.Grants() != 10 {
		t.Fatalf("grants = %d, want 10", s.Grants())
	}
	if s.Pc() != 1.0 || s.Ps() != 1.0 {
		t.Fatalf("Pc = %v Ps = %v, want 1", s.Pc(), s.Ps())
	}
	// Fair baseline with 3 candidates: Pc_fair = 1/3.
	if math.Abs(s.FairPc()-1.0/3.0) > 1e-9 {
		t.Fatalf("FairPc = %v, want 1/3", s.FairPc())
	}
	if math.Abs(s.BiasCore()-3.0) > 1e-9 {
		t.Fatalf("BiasCore = %v, want 3", s.BiasCore())
	}
}

func TestGrantStatsFairRotation(t *testing.T) {
	var s GrantStats
	// 4 threads, 2 per socket, perfect round-robin with all others waiting.
	places := []machine.Place{place(0, 0), place(0, 1), place(1, 0), place(1, 1)}
	for i := 0; i < 400; i++ {
		id := i % 4
		var waiters []machine.Place
		for j, p := range places {
			if j != id {
				waiters = append(waiters, p)
			}
		}
		s.Observe(grant(id, places[id], waiters...), 0)
	}
	if s.Pc() != 0 {
		t.Fatalf("round robin Pc = %v, want 0", s.Pc())
	}
	if math.Abs(s.FairPc()-0.25) > 1e-9 {
		t.Fatalf("FairPc = %v", s.FairPc())
	}
	// Owners 0,1 share socket 0 and 2,3 socket 1: of the transitions
	// 0→1, 1→2, 2→3, 3→0 half stay on the socket, as a fair draw would.
	if math.Abs(s.BiasSocket()-1.0) > 0.01 {
		t.Fatalf("BiasSocket = %v, want ~1", s.BiasSocket())
	}
}

func TestGrantStatsSkipsUncontended(t *testing.T) {
	var s GrantStats
	s.Observe(grant(0, place(0, 0)), 0)
	s.Observe(grant(0, place(0, 0)), 0) // no waiters: skipped
	s.Observe(grant(0, place(0, 0)), 0)
	if s.Samples() != 0 {
		t.Fatalf("uncontended grants were counted: %d", s.Samples())
	}
	// But prev tracking still advances: a contended grant by thread 1
	// right after thread 0 must not be counted as same-core.
	s.Observe(grant(1, place(0, 1), place(1, 0)), 0)
	if s.Samples() != 1 || s.Pc() != 0 {
		t.Fatalf("samples=%d Pc=%v", s.Samples(), s.Pc())
	}
}

func TestGrantStatsFirstGrantSeedsOwner(t *testing.T) {
	var s GrantStats
	// A contended first grant has no previous owner to compare against.
	s.Observe(grant(0, place(0, 0), place(0, 1)), 0)
	if s.Samples() != 0 {
		t.Fatalf("first grant counted: samples = %d", s.Samples())
	}
	s.Observe(grant(0, place(0, 0), place(0, 1)), 0)
	if s.Samples() != 1 || s.Pc() != 1 {
		t.Fatalf("samples=%d Pc=%v, want 1 and 1", s.Samples(), s.Pc())
	}
}

func TestGrantStatsEmpty(t *testing.T) {
	var s GrantStats
	if s.Pc() != 0 || s.Ps() != 0 || s.BiasCore() != 0 || s.BiasSocket() != 0 {
		t.Fatal("empty stats should report zero fairness")
	}
}

func TestGrantStatsDanglingEmpty(t *testing.T) {
	var s GrantStats
	if s.DanglingAvg() != 0 || s.DanglingMax() != 0 || s.Grants() != 0 {
		t.Fatal("empty stats should report zero dangling")
	}
	// A grant with nothing dangling is sampled but leaves the figures at zero.
	s.Observe(grant(0, place(0, 0)), 0)
	if s.Grants() != 1 || s.DanglingAvg() != 0 || s.DanglingMax() != 0 {
		t.Fatalf("grants=%d avg=%v max=%v, want 1, 0, 0", s.Grants(), s.DanglingAvg(), s.DanglingMax())
	}
}

func TestGrantStatsDangling(t *testing.T) {
	var s GrantStats
	// Every grant samples, contended or not.
	for _, d := range []int{0, 5, 10, 5} {
		s.Observe(grant(0, place(0, 0)), d)
	}
	if s.DanglingAvg() != 5 {
		t.Fatalf("avg = %v, want 5", s.DanglingAvg())
	}
	if s.DanglingMax() != 10 {
		t.Fatalf("max = %v, want 10", s.DanglingMax())
	}
	if s.Grants() != 4 {
		t.Fatalf("grants = %d", s.Grants())
	}
}
