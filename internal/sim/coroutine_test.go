package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// stateLog records every OnThreadState transition, plus which done
// transitions happened outside any dispatch (that is, during shutdown).
type stateLog struct {
	doneCount    map[int]int
	shutdownDone []int
}

func observe(e *Engine) *stateLog {
	l := &stateLog{doneCount: map[int]int{}}
	e.OnThreadState = func(t *Thread, s ThreadState) {
		if s != stateDone {
			return
		}
		l.doneCount[t.id]++
		if e.running == nil {
			l.shutdownDone = append(l.shutdownDone, t.id)
		}
	}
	return l
}

// TestShutdownReleasesCoroutines covers every way Run can end. Each
// unfinished simthread is an iter.Pull coroutine that leaks a goroutine
// unless shutdown stops it, so after 100 engines the goroutine count must
// be back at its baseline; and the sched track must see every thread go
// done exactly once, with the unfinished ones stopped in thread-id order.
func TestShutdownReleasesCoroutines(t *testing.T) {
	parkForever := func(th *Thread) { th.Park() }
	spin := func(th *Thread) {
		for {
			th.Sleep(1)
		}
	}
	cases := []struct {
		name       string
		setup      func(e *Engine)
		wantErr    string
		unfinished int // threads still blocked or new when the loop ends
	}{
		{"drain", func(e *Engine) {
			e.Spawn("a", func(th *Thread) { th.Sleep(5) })
			e.Spawn("b", func(th *Thread) { th.Sleep(3) })
		}, "", 0},
		{"stop", func(e *Engine) {
			e.Spawn("parked", parkForever)
			e.Spawn("sleeper", func(th *Thread) { th.Sleep(1000) })
			e.Spawn("finished", func(th *Thread) {})
			e.Spawn("parked2", parkForever)
			e.At(100, e.Stop)
		}, "", 3},
		{"deadlock", func(e *Engine) {
			e.Spawn("stuck1", parkForever)
			e.Spawn("ok", func(th *Thread) { th.Sleep(10) })
			e.Spawn("stuck2", parkForever)
		}, "deadlock", 2},
		{"daemon", func(e *Engine) {
			e.Spawn("daemon", func(th *Thread) {
				th.SetDaemon()
				th.Park()
			})
			e.Spawn("app", func(th *Thread) { th.Sleep(100) })
		}, "", 1},
		{"max-events", func(e *Engine) {
			e.MaxEvents = 50
			e.Spawn("spin1", spin)
			e.Spawn("spin2", spin)
		}, "MaxEvents", 2},
		{"max-time", func(e *Engine) {
			e.MaxTime = 50
			e.Spawn("spin", spin)
			e.Spawn("parked", parkForever)
		}, "MaxTime", 2},
		{"max-wall", func(e *Engine) {
			e.MaxWall = time.Nanosecond
			e.Spawn("spin", spin)
			e.Spawn("parked", parkForever)
		}, "wall-clock watchdog", 2},
		{"spawn-at-future", func(e *Engine) {
			e.Spawn("app", func(th *Thread) { th.Sleep(10) })
			e.SpawnAt(1000, "late", func(th *Thread) { th.Sleep(1) })
			e.At(20, e.Stop)
		}, "", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for i := 0; i < 100; i++ {
				e := NewEngine(uint64(i))
				log := observe(e)
				tc.setup(e)
				err := e.Run()
				if tc.wantErr == "" && err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
					t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
				}
				for _, th := range e.threads {
					if !th.Done() || log.doneCount[th.id] != 1 {
						t.Fatalf("thread %q: state %s, %d done transitions, want done exactly once",
							th.name, th.state, log.doneCount[th.id])
					}
				}
				if len(log.shutdownDone) != tc.unfinished {
					t.Fatalf("shutdown finished threads %v, want %d of them", log.shutdownDone, tc.unfinished)
				}
				for j := 1; j < len(log.shutdownDone); j++ {
					if log.shutdownDone[j] <= log.shutdownDone[j-1] {
						t.Fatalf("shutdown order %v is not thread-id order", log.shutdownDone)
					}
				}
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("goroutines: %d after 100 runs, baseline %d (leaked coroutines)", n, base)
			}
		})
	}
}

// TestThreadPanicBecomesRunError: a panicking simthread must not kill the
// process; Run stops the engine, unwinds the parked threads, and returns
// an error naming the thread with its panic value and stack.
func TestThreadPanicBecomesRunError(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	log := observe(e)
	var wq WaitQueue
	unwound := 0
	for _, name := range []string{"waiter-a", "waiter-b"} {
		e.Spawn(name, func(th *Thread) {
			defer func() { unwound++ }()
			wq.Wait(th)
		})
	}
	e.Spawn("boom", func(th *Thread) {
		th.Sleep(10)
		panic("exploded")
	})
	e.Spawn("late", func(th *Thread) { th.Sleep(1000) })
	err := e.Run()
	if err == nil {
		t.Fatal("a simthread panic must come back from Run as an error")
	}
	for _, want := range []string{`thread "boom"`, "exploded", "TestThreadPanicBecomesRunError"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error does not contain %q:\n%v", want, err)
		}
	}
	if e.Now() != 10 {
		t.Fatalf("engine ran on to %d after the panic at 10", e.Now())
	}
	if unwound != 2 {
		t.Fatalf("%d parked threads unwound, want 2", unwound)
	}
	if got := fmt.Sprint(log.shutdownDone); got != "[0 1 3]" {
		t.Fatalf("shutdown finished threads %s, want [0 1 3]", got)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("goroutines: %d after the run, baseline %d", n, base)
	}
}

// pingPong spawns two simthreads that alternate via Sleep, n sleeps each.
func pingPong(e *Engine, n int) {
	for i, name := range []string{"ping", "pong"} {
		offset := Time(i)
		e.Spawn(name, func(th *Thread) {
			th.Sleep(offset)
			for j := 0; j < n; j++ {
				th.Sleep(2)
			}
		})
	}
}

// BenchmarkSwitch measures one simthread switch: an op is one Sleep by
// each of two ping-ponging threads. events/op and switches/op (dispatches
// counted from the sched track) are deterministic.
func BenchmarkSwitch(b *testing.B) {
	e := NewEngine(1)
	switches := 0
	e.OnThreadState = func(_ *Thread, s ThreadState) {
		if s == stateRunning {
			switches++
		}
	}
	pingPong(e, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(e.EventsRun())/float64(b.N), "events/op")
	b.ReportMetric(float64(switches)/float64(b.N), "switches/op")
}

// TestSwitchAllocs pins the steady-state switch at zero allocations: pop
// the next wake event and dispatch its thread, exactly as Run does.
func TestSwitchAllocs(t *testing.T) {
	e := NewEngine(1)
	pingPong(e, 1<<20)
	step := func() {
		ev := e.q.pop()
		e.now = ev.when
		th := ev.thread
		e.q.recycle(ev)
		e.dispatch(th)
	}
	for i := 0; i < 16; i++ {
		step() // start both threads and warm the event pool
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("steady-state switch allocates %v times, want 0", allocs)
	}
	e.Stop()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestElidedWakeAllocs pins a WaitUntil wake that finds its condition
// false — re-queue and re-park without a resume — at zero allocations,
// driven exactly as Run drives it.
func TestElidedWakeAllocs(t *testing.T) {
	e := NewEngine(1)
	var wq WaitQueue
	e.Spawn("waiter", func(th *Thread) {
		wq.WaitUntil(th, func() bool { return false })
	})
	step := func() {
		ev := e.q.pop()
		e.now = ev.when
		th := ev.thread
		if th.wake == ev {
			th.wake = nil
		}
		e.q.recycle(ev)
		e.dispatch(th)
	}
	step() // start the waiter; it parks on wq
	wake := func() {
		wq.WakeAll(e.now + 1)
		step()
	}
	for i := 0; i < 16; i++ {
		wake() // warm the event pool
	}
	if allocs := testing.AllocsPerRun(1000, wake); allocs != 0 {
		t.Fatalf("elided wake allocates %v times, want 0", allocs)
	}
	if s := e.Stats(); s.ElidedWakes == 0 || s.Resumes != 1 {
		t.Fatalf("stats %+v: want elided wakes and the waiter resumed only at its start", s)
	}
	e.Stop()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
