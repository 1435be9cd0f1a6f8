package mpi

// The property tests here check the lock-free readiness bitmap against a
// deliberately naive mutex-guarded reference model, driven by explicitly
// seeded rand interleavings — the oracle is test scaffolding on the host,
// never simulation state, and every seed is pinned in the test table.
//
//simcheck:allow-file nodeterm property-test interleavings come from explicitly seeded generators
//simcheck:allow-file nogoroutine the mutex-guarded oracle is the reference model under test, not runtime state

import (
	"math/rand"
	"sync"
	"testing"
)

// TestPartitionedRoundTrip sends one partitioned epoch: every partition is
// marked ready lock-free, exactly one trigger fires, and the receiver sees
// the aggregate.
func TestPartitionedRoundTrip(t *testing.T) {
	w := testWorld(t, 2)
	c := w.Comm()
	const parts = 8
	payload := make([]float64, parts)
	var got interface{}
	w.Spawn(0, "sender", func(th *Thread) {
		ps := th.PsendInit(c, 1, 7, parts, 64, payload)
		th.Pstart(ps)
		for i := 0; i < parts; i++ {
			if err := th.Pready(ps, i); err != nil {
				t.Errorf("Pready(%d): %v", i, err)
			}
		}
		if err := th.Pwait(ps); err != nil {
			t.Errorf("Pwait(send): %v", err)
		}
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		pr := th.PrecvInit(c, 0, 7, parts, 64)
		th.Pstart(pr)
		if err := th.Pwait(pr); err != nil {
			t.Errorf("Pwait(recv): %v", err)
		}
		got = pr.Data()
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got.([]float64)) != parts {
		t.Fatalf("aggregate lost: %v", got)
	}
	s := w.PartStats()
	if s.PreadyTrigger != 1 {
		t.Fatalf("triggers = %d, want exactly 1", s.PreadyTrigger)
	}
	if s.PreadyFast != parts-1 {
		t.Fatalf("lock-free Preadys = %d, want %d", s.PreadyFast, parts-1)
	}
	if s.Aggregates != 1 || s.Partitions != parts {
		t.Fatalf("aggregation = %d transfers / %d partitions, want 1/%d", s.Aggregates, s.Partitions, parts)
	}
	if err := w.CheckClean(); err != nil {
		t.Fatal(err)
	}
	if w.DanglingNow() != 0 {
		t.Fatalf("dangling requests leaked: %d", w.DanglingNow())
	}
}

// TestPartitionedPersistentEpochs reuses one Psend/Precv pair across
// several epochs: one trigger and one aggregate per epoch.
func TestPartitionedPersistentEpochs(t *testing.T) {
	w := testWorld(t, 2)
	c := w.Comm()
	const parts, epochs = 5, 4
	w.Spawn(0, "sender", func(th *Thread) {
		ps := th.PsendInit(c, 1, 3, parts, 128, "aggregate")
		for e := 0; e < epochs; e++ {
			th.Pstart(ps)
			if err := th.PreadyRange(ps, 0, parts); err != nil {
				t.Errorf("epoch %d PreadyRange: %v", e, err)
			}
			if err := th.Pwait(ps); err != nil {
				t.Errorf("epoch %d Pwait: %v", e, err)
			}
		}
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		pr := th.PrecvInit(c, 0, 3, parts, 128)
		for e := 0; e < epochs; e++ {
			th.Pstart(pr)
			if err := th.Pwait(pr); err != nil {
				t.Errorf("epoch %d Pwait(recv): %v", e, err)
			}
			if pr.Data() != "aggregate" {
				t.Errorf("epoch %d payload: %v", e, pr.Data())
			}
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	s := w.PartStats()
	if s.PreadyTrigger != epochs || s.Aggregates != epochs {
		t.Fatalf("triggers=%d aggregates=%d, want %d each", s.PreadyTrigger, s.Aggregates, epochs)
	}
	if err := w.CheckClean(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionedUnexpected lets the whole epoch arrive before the Precv
// is started: the arrivals accumulate in the partitioned unexpected queue
// and the late Pstart completes immediately off the sealed envelope.
func TestPartitionedUnexpected(t *testing.T) {
	w := testWorld(t, 2)
	c := w.Comm()
	const parts = 4
	var got interface{}
	w.Spawn(0, "sender", func(th *Thread) {
		ps := th.PsendInit(c, 1, 9, parts, 32, 42)
		th.Pstart(ps)
		if err := th.PreadyRange(ps, 0, parts); err != nil {
			t.Errorf("PreadyRange: %v", err)
		}
		if err := th.Pwait(ps); err != nil {
			t.Errorf("Pwait: %v", err)
		}
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		th.S.Sleep(1_000_000) // aggregate lands before the Precv starts
		pr := th.PrecvInit(c, 0, 9, parts, 32)
		th.Pstart(pr)
		if err := th.Pwait(pr); err != nil {
			t.Errorf("Pwait(recv): %v", err)
		}
		got = pr.Data()
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got %v", got)
	}
	if err := w.CheckClean(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionedContinuation integrates the inner request with OnComplete
// continuations: the callback fires exactly once per epoch under the
// continuation progress mode.
func TestPartitionedContinuation(t *testing.T) {
	w := testWorld(t, 2, func(cfg *Config) {
		cfg.ThreadLevel = ThreadMultiple
		cfg.Progress = ProgressContinuation
	})
	c := w.Comm()
	const parts = 6
	fired := 0
	w.Spawn(0, "sender", func(th *Thread) {
		ps := th.PsendInit(c, 1, 5, parts, 64, "cont")
		th.Pstart(ps)
		for i := parts - 1; i >= 0; i-- { // reverse order: last Pready still triggers
			if err := th.Pready(ps, i); err != nil {
				t.Errorf("Pready(%d): %v", i, err)
			}
		}
		if err := th.Pwait(ps); err != nil {
			t.Errorf("Pwait: %v", err)
		}
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		pr := th.PrecvInit(c, 0, 5, parts, 64)
		th.Pstart(pr)
		done := false
		pr.Request().OnComplete(th, func(r *Request, err error) {
			fired++
			if err != nil {
				t.Errorf("continuation error: %v", err)
			}
			done = true
		})
		for !done {
			th.S.Sleep(1000)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("continuation fired %d times, want 1", fired)
	}
}

// refReadiness is the property-test reference: a naive mutex-guarded bool
// slice with the same contract as partBitmap.setRange (no mutation on
// overlap, trigger on the count reaching full).
type refReadiness struct {
	mu       sync.Mutex
	set      []bool
	count    int
	triggers int
}

func (rf *refReadiness) ready(lo, hi int) (already, trigger bool) {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	for i := lo; i < hi; i++ {
		if rf.set[i] {
			return true, false
		}
	}
	for i := lo; i < hi; i++ {
		rf.set[i] = true
	}
	rf.count += hi - lo
	if rf.count == len(rf.set) {
		rf.triggers++
		return false, true
	}
	return false, false
}

func (rf *refReadiness) reset(n int) {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	rf.set = make([]bool, n)
	rf.count = 0
}

// TestPartBitmapFuzz drives the readiness bitmap directly against the
// reference with random Pready/PreadyRange/get interleavings: same
// already/trigger verdicts on every op, same membership on every probe,
// and trigger exactly once per epoch (word-boundary partition counts
// included).
func TestPartBitmapFuzz(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 63, 64, 65, 12345} {
		rng := rand.New(rand.NewSource(seed))
		parts := 1 + rng.Intn(200)
		if seed >= 63 && seed <= 65 {
			parts = int(seed) // pin word-boundary sizes
		}
		var b partBitmap
		ref := &refReadiness{}
		for epoch := 0; epoch < 3; epoch++ {
			b.reset(parts)
			ref.reset(parts)
			triggers := 0
			for ref.count < parts {
				lo := rng.Intn(parts)
				hi := lo + 1 + rng.Intn(parts-lo)
				if rng.Intn(2) == 0 {
					hi = lo + 1 // singleton Pready
				}
				ga, gt := b.setRange(lo, hi)
				wa, wt := ref.ready(lo, hi)
				if ga != wa || gt != wt {
					t.Fatalf("seed %d parts %d [%d,%d): got (already=%v trigger=%v) want (%v %v)",
						seed, parts, lo, hi, ga, gt, wa, wt)
				}
				if gt {
					triggers++
				}
				i := rng.Intn(parts)
				if b.get(i) != ref.set[i] {
					t.Fatalf("seed %d: membership diverged at %d", seed, i)
				}
			}
			if triggers != 1 {
				t.Fatalf("seed %d epoch %d: %d triggers, want exactly 1", seed, epoch, triggers)
			}
			if !b.full() {
				t.Fatalf("seed %d: bitmap not full after reference filled", seed)
			}
		}
	}
}

// TestPartitionedReadinessProperty is the end-to-end property test:
// random Pready/PreadyRange/Parrived interleavings across simthreads
// (several sender threads sharing one Psend, several receiver threads
// probing one Precv) must agree with the mutex-guarded reference on every
// verdict, trigger exactly once per epoch, and keep Parrived monotone.
// Runs under -race and -shuffle like the rest of the suite.
func TestPartitionedReadinessProperty(t *testing.T) {
	for _, seed := range []int64{11, 22, 33} {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		parts := 8 + rng.Intn(80)
		nthreads := 2 + rng.Intn(3)
		const epochs = 2

		// Cut [0, parts) into contiguous ranges and deal them to sender
		// threads; a few ranges are dealt twice (to arbitrary threads) to
		// provoke ErrPartDoubleReady. Returns the deal plus the number of
		// duplicated ranges: whichever issuance runs second must error, so
		// exactly dups errors surface per epoch.
		type op struct {
			lo, hi int
		}
		deal := func() ([][]op, int) {
			ops := make([][]op, nthreads)
			dups := 0
			for lo := 0; lo < parts; {
				hi := lo + 1 + rng.Intn(5)
				if hi > parts {
					hi = parts
				}
				o := rng.Intn(nthreads)
				ops[o] = append(ops[o], op{lo, hi})
				if rng.Intn(4) == 0 {
					d := rng.Intn(nthreads)
					ops[d] = append(ops[d], op{lo, hi})
					dups++
				}
				lo = hi
			}
			return ops, dups
		}

		w := testWorld(t, 2, func(cfg *Config) {
			cfg.ThreadLevel = ThreadMultiple
			cfg.Seed = uint64(seed)
		})
		w.SetErrhandler(ErrorsReturn)
		c := w.Comm()

		ref := &refReadiness{}
		var ps *Prequest
		var epochReady sync.Mutex // guards started/readyDone/doubles across simthreads
		started := make([]bool, epochs)
		readyDone := make([]int, epochs)
		doubles := make([]int, epochs) // ErrPartDoubleReady seen per epoch
		perThread := make([][][]op, epochs)
		wantDups := make([]int, epochs)
		for e := range perThread {
			perThread[e], wantDups[e] = deal()
		}

		// Sender thread 0 runs Pstart/Pwait; all sender threads issue
		// their dealt ranges in random interleavings (distinct sleep
		// jitter puts the ops in seed-dependent global order).
		for st := 0; st < nthreads; st++ {
			st := st
			w.Spawn(0, "sender", func(th *Thread) {
				if st == 0 {
					ps = th.PsendInit(c, 1, 17, parts, 64, "prop")
				}
				for e := 0; e < epochs; e++ {
					if st == 0 {
						ref.reset(parts)
						th.Pstart(ps)
						epochReady.Lock()
						started[e] = true
						epochReady.Unlock()
					}
					for {
						epochReady.Lock()
						ok := started[e]
						epochReady.Unlock()
						if ok {
							break
						}
						th.S.Sleep(100)
					}
					for _, o := range perThread[e][st] {
						th.S.Sleep(int64(1 + rng.Intn(500)))
						var err error
						if o.hi == o.lo+1 {
							err = th.Pready(ps, o.lo)
						} else {
							err = th.PreadyRange(ps, o.lo, o.hi)
						}
						if err == nil {
							// Successful Preadys mark pairwise-disjoint
							// ranges, so applying them to the reference in
							// completion order is sound regardless of the
							// interleaving — and each must be fresh there.
							if already, _ := ref.ready(o.lo, o.hi); already {
								t.Errorf("seed %d epoch %d [%d,%d): Pready succeeded but reference had it set", seed, e, o.lo, o.hi)
							}
						} else {
							if me, ok := err.(*Error); !ok || me.Code != ErrPartDoubleReady {
								t.Errorf("seed %d: double Pready returned %v, want ErrPartDoubleReady", seed, err)
							}
							epochReady.Lock()
							doubles[e]++
							epochReady.Unlock()
						}
					}
					epochReady.Lock()
					readyDone[e]++
					epochReady.Unlock()
					if st == 0 {
						for {
							epochReady.Lock()
							n := readyDone[e]
							epochReady.Unlock()
							if n == nthreads {
								break
							}
							th.S.Sleep(100)
						}
						// All ops issued: the runtime and the reference must
						// agree that every partition was readied exactly once,
						// with every duplicated range erroring exactly once
						// (on whichever of its two issuances ran second).
						epochReady.Lock()
						nd := doubles[e]
						epochReady.Unlock()
						if ref.count != parts {
							t.Errorf("seed %d epoch %d: reference count %d, want %d", seed, e, ref.count, parts)
						}
						if nd != wantDups[e] {
							t.Errorf("seed %d epoch %d: %d double-Pready errors, want %d", seed, e, nd, wantDups[e])
						}
						if err := th.Pwait(ps); err != nil {
							t.Errorf("seed %d epoch %d Pwait: %v", seed, e, err)
						}
					}
				}
			})
		}
		// Receiver: thread 0 starts/waits; probe threads check Parrived
		// monotonicity on random partitions while the epoch is active.
		var pv *Prequest
		var recvMu sync.Mutex
		recvStarted := make([]bool, epochs)
		probesDone := make([]int, epochs)
		nprobes := 2
		for pt := 0; pt <= nprobes; pt++ {
			pt := pt
			w.Spawn(1, "receiver", func(th *Thread) {
				prng := rand.New(rand.NewSource(seed*100 + int64(pt)))
				if pt == 0 {
					pv = th.PrecvInit(c, 0, 17, parts, 64)
				}
				for e := 0; e < epochs; e++ {
					if pt == 0 {
						th.Pstart(pv)
						recvMu.Lock()
						recvStarted[e] = true
						recvMu.Unlock()
					}
					for {
						recvMu.Lock()
						ok := recvStarted[e]
						recvMu.Unlock()
						if ok {
							break
						}
						th.S.Sleep(100)
					}
					seen := make([]bool, parts)
					landed := 0
					for landed < parts {
						i := prng.Intn(parts)
						arrived, err := th.Parrived(pv, i)
						if err != nil {
							t.Errorf("seed %d: Parrived error: %v", seed, err)
							break
						}
						if seen[i] && !arrived {
							t.Errorf("seed %d: Parrived(%d) regressed true -> false", seed, i)
						}
						if arrived && !seen[i] {
							seen[i] = true
							landed++
						}
						th.S.Sleep(int64(50 + prng.Intn(200)))
					}
					recvMu.Lock()
					probesDone[e]++
					recvMu.Unlock()
					if pt == 0 {
						for {
							recvMu.Lock()
							n := probesDone[e]
							recvMu.Unlock()
							if n == nprobes+1 {
								break
							}
							th.S.Sleep(100)
						}
						if err := th.Pwait(pv); err != nil {
							t.Errorf("seed %d epoch %d Pwait(recv): %v", seed, e, err)
						}
					}
				}
			})
		}

		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		s := w.PartStats()
		if s.PreadyTrigger != epochs {
			t.Errorf("seed %d: %d triggers, want %d (exactly one per epoch)", seed, s.PreadyTrigger, epochs)
		}
		if ref.triggers != epochs {
			t.Errorf("seed %d: reference saw %d triggers, want %d", seed, ref.triggers, epochs)
		}
		if err := w.CheckClean(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestPartitionedVCIShardMapping pins the shard routing: sender and
// receiver of one comm land on the same VCI, and partitioned traffic on
// comms pinned to different shards flows without interference.
func TestPartitionedVCIShardMapping(t *testing.T) {
	w := testWorld(t, 2, func(cfg *Config) {
		cfg.ThreadLevel = ThreadMultiple
		cfg.VCIs = 4
	})
	const parts = 4
	tags := []int{0, 1, 2, 3, 7}
	comms := pinnedComms(w, len(tags))
	sendVCI := make([]int, len(tags))
	recvVCI := make([]int, len(tags))
	w.Spawn(0, "sender", func(th *Thread) {
		for i, tag := range tags {
			ps := th.PsendInit(comms[i], 1, tag, parts, 64, tag)
			sendVCI[i] = ps.vci
			th.Pstart(ps)
			if err := th.PreadyRange(ps, 0, parts); err != nil {
				t.Errorf("tag %d: %v", tag, err)
			}
			if err := th.Pwait(ps); err != nil {
				t.Errorf("tag %d Pwait: %v", tag, err)
			}
		}
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		for i, tag := range tags {
			pr := th.PrecvInit(comms[i], 0, tag, parts, 64)
			recvVCI[i] = pr.vci
			th.Pstart(pr)
			if err := th.Pwait(pr); err != nil {
				t.Errorf("tag %d Pwait(recv): %v", tag, err)
			}
			if pr.Data() != tag {
				t.Errorf("tag %d: got %v", tag, pr.Data())
			}
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w.CheckClean(); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := range tags {
		if sendVCI[i] != i%4 || recvVCI[i] != i%4 {
			t.Errorf("comm %d: send shard %d, recv shard %d, want %d", i, sendVCI[i], recvVCI[i], i%4)
		}
		seen[sendVCI[i]] = true
	}
	if len(seen) < 2 {
		t.Errorf("partitioned traffic spanned %d shards, want at least 2", len(seen))
	}
}
