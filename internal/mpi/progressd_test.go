package mpi

import (
	"fmt"
	"testing"

	"mpicontend/internal/fault"
	"mpicontend/internal/machine"
	"mpicontend/internal/sim"
	"mpicontend/internal/simlock"
)

// withProgress is a testWorld option selecting a progress mode.
func withProgress(m ProgressMode) func(*Config) {
	return func(c *Config) { c.Progress = m }
}

// TestStrongProgressSendRecv: basic two-sided traffic completes under
// strong progress — the daemons drive matching and completion while both
// application threads block parked. The sharded run pins its two comms
// to different shards, so two daemons of each proc carry traffic.
func TestStrongProgressSendRecv(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("vcis=%d", n), func(t *testing.T) {
			w := testWorld(t, 2, withProgress(ProgressStrong), withVCIs(n))
			comms := pinnedComms(w, 2)
			span := shardSpan{}
			got := make([]interface{}, len(comms))
			w.Spawn(0, "sender", func(th *Thread) {
				for k, c := range comms {
					if err := th.Wait(span.add(th.Isend(c, 1, 7, 64, k))); err != nil {
						t.Errorf("send %d: %v", k, err)
					}
				}
			})
			w.Spawn(1, "receiver", func(th *Thread) {
				for k, c := range comms {
					got[k] = th.Recv(c, 0, 7)
				}
			})
			if err := w.Run(); err != nil {
				t.Fatal(err)
			}
			for k := range comms {
				if got[k] != k {
					t.Fatalf("comm %d: got %v", k, got[k])
				}
			}
			span.require(t, min(n, 2))
			if w.DanglingNow() != 0 {
				t.Fatalf("dangling requests leaked: %d", w.DanglingNow())
			}
		})
	}
}

// TestStrongProgressRendezvous: the multi-step rendezvous protocol
// (RTS/CTS/RData) advances entirely on daemon progress rounds.
func TestStrongProgressRendezvous(t *testing.T) {
	w := testWorld(t, 2, withProgress(ProgressStrong))
	c := w.Comm()
	big := w.Cfg.Cost.EagerThreshold * 4
	var got interface{}
	w.Spawn(0, "sender", func(th *Thread) {
		th.Send(c, 1, 1, big, "bulk")
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		got = th.Recv(c, 0, 1)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "bulk" {
		t.Fatalf("got %v", got)
	}
}

// TestStrongProgressWaitall: Waitall parks between completion events and
// reaps shard by shard; all payloads arrive across a sharded runtime.
func TestStrongProgressWaitall(t *testing.T) {
	const msgs = 8
	w := testWorld(t, 2, withProgress(ProgressStrong), withVCIs(4))
	comms := pinnedComms(w, 4)
	span := shardSpan{}
	got := make(map[int]interface{})
	w.Spawn(0, "sender", func(th *Thread) {
		rs := make([]*Request, 0, msgs)
		for tag := 0; tag < msgs; tag++ {
			rs = append(rs, span.add(th.Isend(comms[tag%4], 1, tag, 64, tag*tag)))
		}
		if err := th.Waitall(rs); err != nil {
			t.Errorf("sender waitall: %v", err)
		}
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		rs := make([]*Request, 0, msgs)
		for tag := 0; tag < msgs; tag++ {
			rs = append(rs, span.add(th.Irecv(comms[tag%4], 0, tag)))
		}
		if err := th.Waitall(rs); err != nil {
			t.Errorf("receiver waitall: %v", err)
		}
		for tag, r := range rs {
			got[tag] = r.Data()
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for tag := 0; tag < msgs; tag++ {
		if got[tag] != tag*tag {
			t.Fatalf("tag %d: got %v, want %d", tag, got[tag], tag*tag)
		}
	}
	span.require(t, 4)
	if w.DanglingNow() != 0 {
		t.Fatalf("dangling requests leaked: %d", w.DanglingNow())
	}
}

// TestContinuationWaitall: the continuation-mode Waitall (batched
// CompletionQueue enqueue + drain) delivers every payload, on both the
// unsharded and sharded runtimes.
func TestContinuationWaitall(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("vcis=%d", n), func(t *testing.T) {
			const msgs = 8
			w := testWorld(t, 2, withProgress(ProgressContinuation), withVCIs(n))
			comms := pinnedComms(w, n)
			span := shardSpan{}
			got := make(map[int]interface{})
			w.Spawn(0, "sender", func(th *Thread) {
				rs := make([]*Request, 0, msgs)
				for tag := 0; tag < msgs; tag++ {
					rs = append(rs, span.add(th.Isend(comms[tag%n], 1, tag, 64, fmt.Sprintf("m%d", tag))))
				}
				if err := th.Waitall(rs); err != nil {
					t.Errorf("sender waitall: %v", err)
				}
			})
			w.Spawn(1, "receiver", func(th *Thread) {
				rs := make([]*Request, 0, msgs)
				for tag := 0; tag < msgs; tag++ {
					rs = append(rs, span.add(th.Irecv(comms[tag%n], 0, tag)))
				}
				if err := th.Waitall(rs); err != nil {
					t.Errorf("receiver waitall: %v", err)
				}
				for tag, r := range rs {
					got[tag] = r.Data()
				}
			})
			if err := w.Run(); err != nil {
				t.Fatal(err)
			}
			for tag := 0; tag < msgs; tag++ {
				if got[tag] != fmt.Sprintf("m%d", tag) {
					t.Fatalf("tag %d: got %v", tag, got[tag])
				}
			}
			span.require(t, n)
			if w.DanglingNow() != 0 {
				t.Fatalf("dangling requests leaked: %d", w.DanglingNow())
			}
		})
	}
}

// TestOnCompleteFires: a continuation registered on a pending receive runs
// from the progress engine with the delivered payload, and the runtime
// frees the request at dispatch (a later Wait is a usage error).
func TestOnCompleteFires(t *testing.T) {
	w := testWorld(t, 2, withProgress(ProgressContinuation))
	c := w.Comm()
	fired := 0
	var data interface{}
	w.Spawn(0, "sender", func(th *Thread) {
		th.Send(c, 1, 3, 64, "cb-payload")
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		r := th.Irecv(c, 0, 3)
		r.OnComplete(th, func(r *Request, err error) {
			fired++
			if err != nil {
				t.Errorf("continuation error: %v", err)
			}
			data = r.Data()
		})
		// Nothing to wait on: the receiver parks in a dummy exchange so the
		// world keeps running until the continuation fires.
		th.Send(c, 0, 9, 16, nil)
	})
	w.Spawn(0, "flusher", func(th *Thread) {
		th.Recv(c, 1, 9)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("continuation fired %d times, want 1", fired)
	}
	if data != "cb-payload" {
		t.Fatalf("continuation saw %v", data)
	}
	if w.DanglingNow() != 0 {
		t.Fatalf("dangling requests leaked: %d", w.DanglingNow())
	}
}

// TestOnCompleteAlreadyCompleted is the satellite regression: a
// continuation registered on an already-completed request fires exactly
// once, during the OnComplete call itself, and its ordering against Wait
// returns is deterministic across identically-seeded runs.
func TestOnCompleteAlreadyCompleted(t *testing.T) {
	run := func() (fired int, order []string) {
		w := testWorld(t, 2, withProgress(ProgressContinuation))
		c := w.Comm()
		w.Spawn(0, "sender", func(th *Thread) {
			th.Send(c, 1, 1, 64, "first")
			th.Send(c, 1, 2, 64, "second")
		})
		w.Spawn(1, "receiver", func(th *Thread) {
			r1 := th.Irecv(c, 0, 1)
			r2 := th.Irecv(c, 0, 2)
			// Waiting on r2 guarantees r1 completed too (same flow, FIFO
			// order), so the registration below is on a completed request.
			if err := th.Wait(r2); err != nil {
				t.Errorf("wait r2: %v", err)
			}
			order = append(order, "wait-r2")
			if !r1.Complete() {
				t.Error("r1 should have completed before r2's Wait returned")
			}
			r1.OnComplete(th, func(r *Request, err error) {
				fired++
				order = append(order, "continuation-r1")
			})
			order = append(order, "after-register")
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return fired, order
	}
	fired, order := run()
	if fired != 1 {
		t.Fatalf("late continuation fired %d times, want exactly 1", fired)
	}
	want := []string{"wait-r2", "continuation-r1", "after-register"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	fired2, order2 := run()
	if fired2 != fired || fmt.Sprint(order2) != fmt.Sprint(order) {
		t.Fatalf("nondeterministic continuation ordering: %v vs %v", order, order2)
	}
}

// TestOnCompleteErrorBeforeRecycle extends the PR-6 pool regression
// (TestFailedRequestIsNotPooled): a continuation on a poolable request
// that fails must observe the error code at dispatch, and the errored
// object must not be recycled — while a healthy fired request is.
func TestOnCompleteErrorBeforeRecycle(t *testing.T) {
	w := testWorld(t, 2, withProgress(ProgressContinuation))
	w.SetErrhandler(ErrorsReturn)
	p := w.Procs[0]

	for _, code := range []Errcode{ErrProcFailed, ErrTimeout} {
		bad := p.allocReq(0)
		*bad = Request{p: p, kind: SendReq, dst: 1, poolable: true}
		p.outstanding++
		var sawErr error
		fired := 0
		bad.onComplete = func(r *Request, err error) {
			fired++
			sawErr = err
			if r.freed {
				t.Errorf("%v: continuation ran after free", code)
			}
		}
		bad.fail(code, 0)
		if fired != 1 {
			t.Fatalf("%v: continuation fired %d times, want 1", code, fired)
		}
		e, ok := sawErr.(*Error)
		if !ok || e.Code != code {
			t.Fatalf("continuation saw %v, want code %v", sawErr, code)
		}
		if !bad.freed {
			t.Fatalf("%v: fired request was not freed", code)
		}
		if p.vcis[0].reqFree != nil {
			t.Fatalf("%v: failed request was recycled into the pool", code)
		}
	}

	good := p.allocReq(0)
	*good = Request{p: p, kind: SendReq, dst: 1, poolable: true}
	p.outstanding++
	fired := 0
	good.onComplete = func(r *Request, err error) {
		fired++
		if err != nil {
			t.Errorf("healthy continuation saw %v", err)
		}
	}
	good.markComplete(0)
	if fired != 1 {
		t.Fatalf("healthy continuation fired %d times, want 1", fired)
	}
	if p.vcis[0].reqFree != good {
		t.Fatal("healthy fired request was not recycled")
	}
}

// TestCompletionQueuePollWaitAny drains a mixed already-complete /
// pending batch through the public CompletionQueue API.
func TestCompletionQueuePollWaitAny(t *testing.T) {
	const msgs = 4
	w := testWorld(t, 2, withProgress(ProgressContinuation))
	c := w.Comm()
	drained := 0
	w.Spawn(0, "sender", func(th *Thread) {
		for tag := 0; tag < msgs; tag++ {
			th.Send(c, 1, tag, 64, tag)
		}
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		q := th.NewCompletionQueue()
		if q.Poll() != nil {
			t.Error("Poll on empty queue must return nil")
		}
		rs := make([]*Request, 0, msgs)
		for tag := 0; tag < msgs; tag++ {
			rs = append(rs, th.Irecv(c, 0, tag))
		}
		for _, r := range rs {
			q.Add(r)
		}
		for drained < msgs {
			r := q.WaitAny()
			if r.Data() == nil {
				t.Error("drained completion lost its payload")
			}
			drained++
		}
		if q.Len() != 0 || q.Poll() != nil {
			t.Error("queue should be empty after draining")
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if drained != msgs {
		t.Fatalf("drained %d completions, want %d", drained, msgs)
	}
	if w.DanglingNow() != 0 {
		t.Fatalf("dangling requests leaked: %d", w.DanglingNow())
	}
}

// TestProgressModeValidation: non-polling modes require a lock-taking
// thread level and the global granularity.
func TestProgressModeValidation(t *testing.T) {
	base := func() Config {
		return Config{Topo: machine.Nehalem2x4(2), Lock: simlock.KindTicket, Seed: 1}
	}
	cfg := base()
	cfg.Progress = ProgressStrong
	cfg.ThreadLevel = ThreadFunneled
	if _, err := NewWorld(cfg); err == nil {
		t.Fatal("strong progress below MPI_THREAD_MULTIPLE must be rejected")
	}
	cfg = base()
	cfg.Progress = ProgressContinuation
	cfg.Granularity = GranFine
	if _, err := NewWorld(cfg); err == nil {
		t.Fatal("continuation progress with GranFine must be rejected")
	}
	cfg = base()
	cfg.Progress = ProgressContinuation
	if _, err := NewWorld(cfg); err != nil {
		t.Fatalf("valid continuation config rejected: %v", err)
	}
}

// TestParseProgressMode: every mode round-trips through its String
// name, "" is polling, and an unknown name is rejected.
func TestParseProgressMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want ProgressMode
	}{
		{ProgressPolling.String(), ProgressPolling},
		{ProgressStrong.String(), ProgressStrong},
		{ProgressContinuation.String(), ProgressContinuation},
		{"", ProgressPolling},
	} {
		got, err := ParseProgressMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseProgressMode(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseProgressMode("eager"); err == nil {
		t.Error("unknown progress mode accepted")
	}
}

// TestProgressModeDeterminism: each mode reproduces the identical final
// virtual time across two identically-seeded runs.
func TestProgressModeDeterminism(t *testing.T) {
	for _, m := range []ProgressMode{ProgressStrong, ProgressContinuation} {
		t.Run(m.String(), func(t *testing.T) {
			run := func() int64 {
				const msgs = 6
				w := testWorld(t, 2, withProgress(m), withVCIs(4))
				comms := pinnedComms(w, 4)
				span := shardSpan{}
				w.Spawn(0, "sender", func(th *Thread) {
					rs := make([]*Request, 0, msgs)
					for tag := 0; tag < msgs; tag++ {
						rs = append(rs, span.add(th.Isend(comms[tag%4], 1, tag, 256, tag)))
					}
					if err := th.Waitall(rs); err != nil {
						t.Errorf("waitall: %v", err)
					}
				})
				w.Spawn(1, "receiver", func(th *Thread) {
					rs := make([]*Request, 0, msgs)
					for tag := 0; tag < msgs; tag++ {
						rs = append(rs, span.add(th.Irecv(comms[tag%4], 0, tag)))
					}
					if err := th.Waitall(rs); err != nil {
						t.Errorf("waitall: %v", err)
					}
				})
				if err := w.Run(); err != nil {
					t.Fatal(err)
				}
				span.require(t, 4)
				return w.Eng.Now()
			}
			t1, t2 := run(), run()
			if t1 != t2 {
				t.Fatalf("final virtual time diverged: %d vs %d", t1, t2)
			}
		})
	}
}

// TestCrashWakesParkedWaiters: the progress daemons and CompletionQueue
// waiters park in WaitUntil on the proc's activity queue, and the engine
// re-parks them without a resume while their condition is false. A rank
// crash must still resume every one of them, so each unwinds at the crash
// instant rather than staying parked until the run shuts down.
func TestCrashWakesParkedWaiters(t *testing.T) {
	const crashAt = 100_000
	w := testWorld(t, 2, withProgress(ProgressContinuation), withVCIs(4),
		func(c *Config) { c.Fault = fault.Config{Crashes: []fault.CrashSpec{{Rank: 1, AtNs: crashAt}}} })
	w.SetErrhandler(ErrorsReturn)
	comms := []*Comm{w.SetupComm().SetVCI(1), w.SetupComm().SetVCI(3)}
	span := shardSpan{}
	doneAt := map[string]sim.Time{}
	w.Eng.OnThreadState = func(th *sim.Thread, s sim.ThreadState) {
		if s.String() == "done" {
			doneAt[th.Name()] = w.Eng.Now()
		}
	}
	w.Spawn(1, "cqwaiter", func(th *Thread) {
		q := th.NewCompletionQueue()
		for _, c := range comms {
			q.Add(span.add(th.Irecv(c, 0, 9))) // never sent
		}
		q.WaitAny()
		t.Error("WaitAny returned on a crashed rank")
	})
	w.Spawn(0, "survivor", func(th *Thread) { th.S.Sleep(10 * crashAt) })
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	span.require(t, 2)
	waiters := []string{"cqwaiter[r1.t0]"}
	for k := 1; k <= 4; k++ {
		waiters = append(waiters, fmt.Sprintf("progressd[r1.t%d]", k))
	}
	for _, name := range waiters {
		if at, ok := doneAt[name]; !ok || at != crashAt {
			t.Errorf("%s finished at %d (seen %v), want at the crash, %d", name, at, ok, crashAt)
		}
	}
	if st := w.Eng.Stats(); st.ElidedWakes == 0 {
		t.Errorf("no wake was elided before the crash (%+v): the test does not cover a re-parked waiter", st)
	}
}
