package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// This file checks the engine's two fast paths — the run-ahead Sleep and
// the elided WaitUntil wake — against the plain dispatch path they
// shortcut. The same random program runs once as is and once with
// Engine.slow set; everything observable must match: the (time, thread,
// state) transition log interleaved with the program's own marks,
// EventsRun, the final clock and Run's error.

// Program operations.
const (
	opSleep = iota
	opWaitUntil
	opBump
	opWakeOne
	opWakeAll
	opPark
	opUnpark
	opUnparkCancel
	opTimer
	opCancel
	opStop
	opSpin
)

// opWeights is the op mix: mostly sleeps, rare stops and parks.
var opWeights = [...]int{
	opSleep: 8, opWaitUntil: 3, opBump: 3, opWakeOne: 2, opWakeAll: 3, opPark: 1,
	opUnpark: 2, opUnparkCancel: 1, opTimer: 2, opCancel: 1, opStop: 1, opSpin: 2,
}

var totalWeight = func() (n int) {
	for _, w := range opWeights {
		n += w
	}
	return n
}()

// sleepDurations spans every wheel level and the far heap, with plenty of
// zero and tiny sleeps so ties with queued events are common.
var sleepDurations = []Time{0, 0, 1, 1, 2, 3, 7, 63, 64, 100, 4095, 4096, 70_000, 1 << 18, 1<<24 + 5, 1 << 26}

type raOp struct{ kind, a, b int }

type raProgram struct {
	threads   [][]raOp
	daemon    []bool
	maxEvents uint64
	maxTime   Time
	watchdog  bool
}

// genRAProgram derives a program from seed. Every choice is made here or
// from simulation state, never from a random stream at run time, so both
// paths execute the same program.
func genRAProgram(seed uint64) raProgram {
	g := NewRand(seed)
	var p raProgram
	n := 2 + g.Intn(4)
	for i := 0; i < n; i++ {
		ops := make([]raOp, 4+g.Intn(28))
		for j := range ops {
			kind, w := 0, g.Intn(totalWeight)
			for w >= opWeights[kind] {
				w -= opWeights[kind]
				kind++
			}
			ops[j] = raOp{kind, g.Intn(1 << 20), g.Intn(1 << 20)}
		}
		p.threads = append(p.threads, ops)
		p.daemon = append(p.daemon, g.Intn(3) == 0)
	}
	switch g.Intn(4) {
	case 0:
		p.maxEvents = uint64(10 + g.Intn(3000))
	case 1:
		p.maxTime = Time(1 + g.Int63n(1<<25))
	}
	p.watchdog = g.Intn(2) == 0
	return p
}

type raResult struct {
	log    []string
	events uint64
	now    Time
	err    string
	stats  Stats
}

// runRAProgram executes p on a fresh engine, with the fast paths on or
// forced off.
func runRAProgram(p raProgram, slow bool) raResult {
	e := NewEngine(1)
	e.slow = slow
	e.MaxEvents = p.maxEvents
	e.MaxTime = p.maxTime
	if p.watchdog {
		e.MaxWall = 1 << 62 // never trips; exercises the check cadence
	}
	var res raResult
	mark := func(format string, args ...interface{}) {
		res.log = append(res.log, fmt.Sprintf("@%d ", e.Now())+fmt.Sprintf(format, args...))
	}
	e.OnThreadState = func(t *Thread, s ThreadState) { mark("t%d %s", t.id, s) }

	var (
		flags       [3]int
		queues      [2]WaitQueue
		threads     []*Thread
		plainParked []bool
		timers      []*Timer
	)
	small := func(b int) Time { return Time(b % 5) }
	// pick returns the first thread from start on (cyclically) that ok
	// accepts, or nil.
	pick := func(start int, ok func(j int) bool) *Thread {
		for k := 0; k < len(threads); k++ {
			if j := (start + k) % len(threads); ok(j) {
				return threads[j]
			}
		}
		return nil
	}
	for i, ops := range p.threads {
		i, ops := i, ops
		th := e.Spawn(fmt.Sprintf("t%d", i), func(th *Thread) {
			for k, op := range ops {
				mark("t%d op%d kind%d", i, k, op.kind)
				switch op.kind {
				case opSleep:
					th.Sleep(sleepDurations[op.a%len(sleepDurations)])
				case opWaitUntil:
					f := op.b % len(flags)
					target := flags[f] + 1
					queues[op.a%len(queues)].WaitUntil(th, func() bool { return flags[f] >= target })
				case opBump:
					flags[op.b%len(flags)]++
				case opWakeOne:
					queues[op.a%len(queues)].WakeOne(e.Now() + small(op.b))
				case opWakeAll:
					queues[op.a%len(queues)].WakeAll(e.Now() + small(op.b))
				case opPark:
					plainParked[i] = true
					th.Park()
					plainParked[i] = false
				case opUnpark:
					if u := pick(op.a, func(j int) bool { return plainParked[j] && threads[j].Parked() }); u != nil {
						u.Unpark(e.Now() + small(op.b))
					}
				case opUnparkCancel:
					if u := pick(op.a, func(j int) bool { return plainParked[j] && threads[j].wake != nil }); u != nil {
						u.UnparkCancel()
					}
				case opTimer:
					id := len(timers)
					f, q := op.a%len(flags), op.a%len(queues)
					timers = append(timers, e.AtTimer(e.Now()+sleepDurations[op.b%len(sleepDurations)], func() {
						mark("timer%d", id)
						flags[f]++
						queues[q].WakeAll(e.Now())
					}))
				case opCancel:
					if len(timers) > 0 {
						timers[op.b%len(timers)].Cancel()
					}
				case opStop:
					e.Stop()
				case opSpin:
					for r := 0; r < 1+op.a%400; r++ {
						th.Sleep(sleepDurations[(op.b+r)%8])
					}
				}
			}
			mark("t%d done", i)
		})
		if p.daemon[i] {
			th.SetDaemon()
		}
		threads = append(threads, th)
		plainParked = append(plainParked, false)
	}
	if err := e.Run(); err != nil {
		res.err = err.Error()
	}
	res.events, res.now, res.stats = e.EventsRun(), e.Now(), e.Stats()
	return res
}

// checkFastMatchesSlow runs the seed's program on both paths and returns
// the fast run's stats.
func checkFastMatchesSlow(t *testing.T, seed uint64) Stats {
	t.Helper()
	p := genRAProgram(seed)
	fast, slow := runRAProgram(p, false), runRAProgram(p, true)
	if strings.Contains(fast.err, "panicked") || strings.Contains(slow.err, "panicked") {
		t.Fatalf("seed %d: program panicked:\nfast: %s\nslow: %s", seed, fast.err, slow.err)
	}
	for i := 0; i < len(fast.log) && i < len(slow.log); i++ {
		if fast.log[i] != slow.log[i] {
			t.Fatalf("seed %d: logs diverge at entry %d: fast %q, slow %q", seed, i, fast.log[i], slow.log[i])
		}
	}
	if len(fast.log) != len(slow.log) {
		t.Fatalf("seed %d: fast log has %d entries, slow %d", seed, len(fast.log), len(slow.log))
	}
	if fast.events != slow.events || fast.now != slow.now || fast.err != slow.err {
		t.Fatalf("seed %d: fast ended (events %d, now %d, err %q), slow (events %d, now %d, err %q)",
			seed, fast.events, fast.now, fast.err, slow.events, slow.now, slow.err)
	}
	if fast.stats.Events != fast.events {
		t.Fatalf("seed %d: Stats().Events %d != EventsRun %d", seed, fast.stats.Events, fast.events)
	}
	if slow.stats.InlineSleeps != 0 || slow.stats.ElidedWakes != 0 {
		t.Fatalf("seed %d: forced slow path took a fast path: %+v", seed, slow.stats)
	}
	if got := fast.stats.Resumes + fast.stats.InlineSleeps + fast.stats.ElidedWakes; got != slow.stats.Resumes {
		t.Fatalf("seed %d: fast resumes+inline+elided = %d, slow resumes %d", seed, got, slow.stats.Resumes)
	}
	return fast.stats
}

// TestFastPathsMatchSlowPath runs fixed seeds and requires that, between
// them, both fast paths fire, so the comparison is not vacuous.
func TestFastPathsMatchSlowPath(t *testing.T) {
	var total Stats
	for seed := uint64(1); seed <= 300; seed++ {
		s := checkFastMatchesSlow(t, seed)
		total.InlineSleeps += s.InlineSleeps
		total.ElidedWakes += s.ElidedWakes
	}
	if total.InlineSleeps == 0 || total.ElidedWakes == 0 {
		t.Fatalf("fast paths never fired over the seeds: %+v", total)
	}
}

// FuzzFastPathsMatchSlowPath lets the fuzzer hunt for programs on which a
// fast path changes the schedule (go test runs the corpus; -fuzz explores
// further).
func FuzzFastPathsMatchSlowPath(f *testing.F) {
	f.Add(uint64(7))
	f.Add(uint64(1 << 40))
	f.Add(uint64(0xfeedface))
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkFastMatchesSlow(t, seed)
	})
}

// runBoth runs the simulation setup builds, once as is and once on the
// forced slow path, and returns both engines and Run errors.
func runBoth(setup func(e *Engine)) (fast, slow *Engine, fastErr, slowErr error) {
	fast, slow = NewEngine(1), NewEngine(1)
	slow.slow = true
	setup(fast)
	setup(slow)
	return fast, slow, fast.Run(), slow.Run()
}

// sameEnding requires both runs to end with the same EventsRun, clock and
// error (compared up to cut, so a wall-clock figure can be left out), and
// the fast run to have slept inline at least once.
func sameEnding(t *testing.T, fast, slow *Engine, fastErr, slowErr error, cut string) {
	t.Helper()
	msg := func(err error) string {
		if err == nil {
			return ""
		}
		s, _, _ := strings.Cut(err.Error(), cut)
		return s
	}
	if fastErr == nil || msg(fastErr) != msg(slowErr) {
		t.Fatalf("fast error %v, slow error %v: want the same limit error", fastErr, slowErr)
	}
	if fast.EventsRun() != slow.EventsRun() || fast.Now() != slow.Now() {
		t.Fatalf("fast stopped at event %d, time %d; slow at event %d, time %d",
			fast.EventsRun(), fast.Now(), slow.EventsRun(), slow.Now())
	}
	if fast.Stats().InlineSleeps == 0 {
		t.Fatal("the lone sleeper never continued inline")
	}
}

// sleepLoop spawns a lone thread that sleeps n times, calling each (if
// set) before every sleep.
func sleepLoop(e *Engine, n int, each func(i int)) {
	e.Spawn("sleeper", func(th *Thread) {
		for i := 0; i < n; i++ {
			if each != nil {
				each(i)
			}
			th.Sleep(3)
		}
	})
}

// TestRunAheadTripsLimitsAtSameEvent: a lone sleeper's wake is always the
// next event, so it runs ahead, yet MaxEvents, MaxTime and the wall-clock
// watchdog must trip on exactly the event they trip on without run-ahead.
func TestRunAheadTripsLimitsAtSameEvent(t *testing.T) {
	t.Run("MaxEvents", func(t *testing.T) {
		fast, slow, fe, se := runBoth(func(e *Engine) {
			e.MaxEvents = 500
			sleepLoop(e, 10_000, nil)
		})
		sameEnding(t, fast, slow, fe, se, "\x00")
	})
	t.Run("MaxTime", func(t *testing.T) {
		fast, slow, fe, se := runBoth(func(e *Engine) {
			e.MaxTime = 1000
			sleepLoop(e, 10_000, nil)
		})
		sameEnding(t, fast, slow, fe, se, "\x00")
	})
	t.Run("MaxWall", func(t *testing.T) {
		// Arm the watchdog mid-run; it must fire at the next check,
		// event 1024 on both paths.
		fast, slow, fe, se := runBoth(func(e *Engine) {
			sleepLoop(e, 10_000, func(i int) {
				if i == 700 {
					e.MaxWall = time.Nanosecond
				}
			})
		})
		sameEnding(t, fast, slow, fe, se, "(elapsed")
		if fast.EventsRun() != wallCheckEvery {
			t.Fatalf("watchdog tripped after %d events, want %d", fast.EventsRun(), wallCheckEvery)
		}
	})
}

// TestStopThenSleepYields: a thread that stops the engine and then sleeps
// must yield, so Run returns before the thread runs on.
func TestStopThenSleepYields(t *testing.T) {
	e := NewEngine(1)
	ranOn := false
	e.Spawn("stopper", func(th *Thread) {
		th.Sleep(5)
		e.Stop()
		th.Sleep(5)
		ranOn = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ranOn || e.Now() != 5 {
		t.Fatalf("after Stop the thread ran on (%v) to time %d, want a yield at 5", ranOn, e.Now())
	}
}

// TestWaitUntilElidesFalseWakes: a WaitUntil waiter woken n times while
// its condition is false and once when it is true is resumed exactly
// once; each false wake still logs its running→parked pair, exactly as
// the plain Wait loop does.
func TestWaitUntilElidesFalseWakes(t *testing.T) {
	const n = 5
	type outcome struct {
		states  []string
		resumed int
		stats   Stats
	}
	run := func(slow bool) outcome {
		e := NewEngine(1)
		e.slow = slow
		var o outcome
		var wq WaitQueue
		ready := false
		waiter := e.Spawn("waiter", func(th *Thread) {
			wq.WaitUntil(th, func() bool { return ready })
			o.resumed++
		})
		e.OnThreadState = func(th *Thread, s ThreadState) {
			if th == waiter {
				o.states = append(o.states, fmt.Sprintf("%s@%d", s, e.Now()))
			}
		}
		e.Spawn("waker", func(th *Thread) {
			for i := 0; i < n; i++ {
				th.Sleep(1)
				wq.WakeAll(th.Now())
			}
			th.Sleep(1)
			ready = true
			wq.WakeAll(th.Now())
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		o.stats = e.Stats()
		return o
	}
	fast, slow := run(false), run(true)
	want := []string{"running@0", "parked@0"}
	for i := 1; i <= n; i++ {
		want = append(want, fmt.Sprintf("running@%d", i), fmt.Sprintf("parked@%d", i))
	}
	want = append(want, fmt.Sprintf("running@%d", n+1), fmt.Sprintf("done@%d", n+1))
	if got := fmt.Sprint(fast.states); got != fmt.Sprint(want) || got != fmt.Sprint(slow.states) {
		t.Fatalf("waiter transitions:\nfast %v\nslow %v\nwant %v", fast.states, slow.states, want)
	}
	if fast.resumed != 1 || slow.resumed != 1 {
		t.Fatalf("code after WaitUntil ran %d (fast) / %d (slow) times, want once", fast.resumed, slow.resumed)
	}
	saved := slow.stats.Resumes - fast.stats.Resumes - fast.stats.InlineSleeps
	if fast.stats.ElidedWakes != n || saved != n {
		t.Fatalf("fast elided %d wakes and saved %d waiter resumes, want %d of each",
			fast.stats.ElidedWakes, saved, n)
	}
}
