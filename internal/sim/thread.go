//go:build go1.23

// The constraint lifts this file, the module's only iter user, to go1.23.

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// ThreadState is a simthread's scheduling state, exposed to observers via
// Engine.OnThreadState.
type ThreadState int

const (
	stateNew ThreadState = iota
	stateRunning
	stateSleeping
	stateParked
	stateDone
)

// String names the state for thread dumps.
func (s ThreadState) String() string {
	switch s {
	case stateNew:
		return "new"
	case stateRunning:
		return "running"
	case stateSleeping:
		return "sleeping"
	case stateParked:
		return "parked"
	case stateDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// killed is the panic payload used to unwind a simthread body when the
// engine shuts down while the thread is still blocked.
type killed struct{}

// Thread is a cooperative simulated thread, run as an iter.Pull coroutine
// that switches to and from the engine without the Go scheduler. All
// methods must be called from the thread's own function (only one
// simthread runs at a time, so no further synchronization is needed).
type Thread struct {
	eng    *Engine
	id     int
	name   string
	state  ThreadState
	next   func() (struct{}, bool) // runs the body until it yields or ends
	stop   func()                  // unwinds a suspended body (shutdown)
	yieldF func(struct{}) bool     // suspends the body; false means unwind

	// Data carries user context (e.g. the machine placement of the
	// thread). The simulator itself never inspects it.
	Data interface{}

	// daemon marks threads that may legitimately be parked when the
	// simulation ends (background pollers); they do not count as a
	// deadlock.
	daemon bool

	wake *event // pending wake event while sleeping or parked with deadline

	// wq is the WaitQueue the thread is linked on (nil when none) and
	// qnext its successor there. While the thread blocks in WaitUntil,
	// until is its condition and untilQ the queue it re-joins when a
	// wake finds the condition false.
	wq     *WaitQueue
	qnext  *Thread
	until  func() bool
	untilQ *WaitQueue
}

// ID returns the thread's unique index within its engine.
func (t *Thread) ID() int { return t.id }

// State returns the thread's current scheduling state.
func (t *Thread) State() ThreadState { return t.state }

// setState records a state transition and notifies the engine's observer.
// Same-state transitions are dropped so observers see only real changes.
func (t *Thread) setState(s ThreadState) {
	if t.state == s {
		return
	}
	t.state = s
	if fn := t.eng.OnThreadState; fn != nil {
		fn(t, s)
	}
}

// Name returns the label given at Spawn time.
func (t *Thread) Name() string { return t.name }

// Engine returns the engine this thread belongs to.
func (t *Thread) Engine() *Engine { return t.eng }

// Now returns the current virtual time.
func (t *Thread) Now() Time { return t.eng.now }

// coroutine wraps fn as the thread's iter.Pull body. However the body
// ends, the thread becomes done: a killed unwind is the engine shutting
// down, and any other panic stops the engine, which reports it from Run.
func (t *Thread) coroutine(fn func(*Thread)) {
	t.next, t.stop = iter.Pull(func(yield func(struct{}) bool) {
		t.yieldF = yield
		defer func() {
			r := recover()
			if _, ok := r.(killed); r != nil && !ok && t.eng.failed == nil {
				t.eng.failed = fmt.Errorf("sim: thread %q panicked: %v\n%s", t.name, r, debug.Stack())
				t.eng.stopped = true
			}
			t.setState(stateDone)
		}()
		fn(t)
	})
}

// yield suspends the body back into the engine's dispatch and returns when
// redispatched; if the engine stops it instead, it unwinds via killed.
func (t *Thread) yield() {
	if !t.yieldF(struct{}{}) {
		panic(killed{})
	}
}

// Sleep advances this thread's local time by d nanoseconds, letting other
// events run meanwhile. Negative durations are treated as zero.
//
// When nothing else is due first (Engine.runAhead), the thread continues
// inline instead of yielding: the clock, the event count and the
// sleeping→running transitions advance exactly as if its wake event had
// been queued, popped and dispatched.
func (t *Thread) Sleep(d Time) {
	e := t.eng
	if e.running != t {
		panic(fmt.Sprintf("sim: Sleep called on %q from outside its own context", t.name))
	}
	if d < 0 {
		d = 0
	}
	t.setState(stateSleeping)
	at := e.now + d
	if e.runAhead(at) {
		e.now = at
		e.seq++ // the seq the wake event would have taken
		e.eventsRun++
		e.stats.InlineSleeps++
		t.setState(stateRunning)
		return
	}
	e.atThread(at, t)
	t.yield()
}

// Park blocks the thread until another party calls Unpark. A thread parked
// forever when the event queue drains is reported as a deadlock by Run.
func (t *Thread) Park() {
	if t.eng.running != t {
		panic(fmt.Sprintf("sim: Park called on %q from outside its own context", t.name))
	}
	t.setState(stateParked)
	t.yield()
}

// Unpark schedules the parked thread to resume at virtual time at (clamped
// to now). Unparking a thread that is not parked, or unparking it twice
// before it resumes, panics: either indicates a scheduling bug.
func (t *Thread) Unpark(at Time) {
	if t.state != stateParked {
		panic(fmt.Sprintf("sim: Unpark of thread %q which is not parked", t.name))
	}
	if t.wake != nil {
		panic(fmt.Sprintf("sim: double Unpark of thread %q", t.name))
	}
	if at < t.eng.now {
		at = t.eng.now
	}
	t.wake = t.eng.atThread(at, t)
}

// UnparkCancel cancels a pending Unpark, leaving the thread parked again.
// It is a no-op if no wake is pending.
func (t *Thread) UnparkCancel() {
	if t.wake != nil {
		t.eng.q.cancelEvent(t.wake)
		t.wake = nil
		t.setState(stateParked)
	}
}

// Parked reports whether the thread is currently parked with no pending
// wake event.
func (t *Thread) Parked() bool { return t.state == stateParked && t.wake == nil }

// Done reports whether the thread function has returned.
func (t *Thread) Done() bool { return t.state == stateDone }

// SetDaemon marks the thread as a background daemon: if the event queue
// drains while it is parked, Run treats the simulation as complete instead
// of deadlocked (the thread is then terminated).
func (t *Thread) SetDaemon() { t.daemon = true }
