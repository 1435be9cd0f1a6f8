package mpi

// This file implements the two progress modes that move completion off
// the application threads — the remedy the paper could not run (§9
// future work; MPIX continuations and strong-progress designs in later
// MPICH work):
//
//   - Strong progress (ProgressStrong): a dedicated progress daemon
//     simthread per VCI shard drives that shard's transport and matching
//     queues, parking on the proc's activity queue while its completion
//     queue is empty and woken by arrival events. Application threads
//     blocked in Wait/Waitall park instead of iterating the progress
//     loop, so they never acquire the critical section at low (progress)
//     class at all.
//
//   - Continuations (ProgressContinuation): strong progress plus
//     completion-time callbacks. Request.OnComplete registers a function
//     the progress engine runs when the request completes; a
//     CompletionQueue turns a Waitall over n requests into one batched
//     enqueue and a drain of n completion events, with the runtime
//     freeing each request at dispatch time inside the critical section
//     it already holds.

import (
	"fmt"

	"mpicontend/internal/sim"
	"mpicontend/internal/simlock"
)

// ProgressMode selects who drives the progress engine.
type ProgressMode int

const (
	// ProgressPolling is the paper's shape: blocked application threads
	// iterate the progress loop from Wait, re-acquiring the critical
	// section at low class around every poll. The default.
	ProgressPolling ProgressMode = iota
	// ProgressStrong runs a dedicated progress daemon per VCI shard;
	// application threads block without polling.
	ProgressStrong
	// ProgressContinuation is strong progress plus completion-time
	// callbacks (Request.OnComplete) and CompletionQueue draining;
	// Waitall becomes one batched enqueue plus a drain.
	ProgressContinuation
)

// String names the progress mode as used in figures and flags.
func (m ProgressMode) String() string {
	switch m {
	case ProgressPolling:
		return "polling"
	case ProgressStrong:
		return "strong"
	case ProgressContinuation:
		return "continuation"
	default:
		return fmt.Sprintf("ProgressMode(%d)", int(m))
	}
}

// ParseProgressMode is the inverse of ProgressMode.String; the empty
// string means ProgressPolling, the default.
func ParseProgressMode(s string) (ProgressMode, error) {
	if s == "" {
		return ProgressPolling, nil
	}
	for m := ProgressPolling; m <= ProgressContinuation; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown -progress mode %q (polling|strong|continuation)", s)
}

// eventDriven reports whether completions wake parked waiters instead of
// being discovered by polling.
func (w *World) eventDriven() bool { return w.Cfg.Progress != ProgressPolling }

// startProgressDaemons spawns one progress daemon per (proc, VCI shard).
// Called lazily from World.Run so daemons bind to cores after the
// application threads, like MPICH progress threads joining a running job.
func (w *World) startProgressDaemons() {
	if w.progressd || !w.eventDriven() {
		return
	}
	w.progressd = true
	for _, p := range w.Procs {
		for v := range p.vcis {
			p, v := p, v
			w.spawn(p.Rank, "progressd", func(th *Thread) {
				th.S.SetDaemon()
				th.noBackoff = true
				progressDaemon(th, p, v)
			})
		}
	}
}

// progressDaemon is the strong-progress engine of one shard: while the
// shard's network completion queue is empty it parks on the proc's
// activity queue (arrivals, completions and failure events wake it); when
// events are queued it runs progress rounds under the shard's critical
// section at low class, paced by the progress-loop overhead — the engine
// timer that separates rounds. The emptiness check is adjacent to the
// park (no virtual-time gap), so no wake-up can be lost. The park is a
// WaitUntil, so a wake for another shard's arrival re-parks the daemon
// without resuming it.
func progressDaemon(th *Thread, p *Proc, v int) {
	sh := p.vcis[v]
	cost := th.cost()
	ready := func() bool { return p.crashed || len(sh.cq) > 0 }
	for {
		p.activity.WaitUntil(th.S, ready)
		th.checkCrashed()
		th.progressRound(v, simlock.Low, nil)
		th.S.Sleep(cost.ProgressLoopOverhead)
	}
}

// OnComplete registers fn as the request's continuation: the progress
// engine calls fn(r, r.Err()) exactly once, at completion time, from the
// completing context (a progress daemon or the issuing call), with the
// request's shard critical section held. The runtime then frees the
// request itself — a continuation request must not be passed to
// Wait/Test afterwards; fn observes its payload and error instead. If
// the request already completed, fn fires during this call. Callbacks
// must not make blocking MPI calls; their typical job is to hand the
// completion to application state (or a CompletionQueue does it for
// them).
func (r *Request) OnComplete(th *Thread, fn func(r *Request, err error)) {
	if fn == nil {
		panic("mpi: OnComplete with nil callback")
	}
	if !th.P.w.eventDriven() {
		// Polling mode has no completion-time dispatch context: a callback
		// registered on a pending request would never fire.
		panic("mpi: OnComplete requires ProgressStrong or ProgressContinuation")
	}
	tel := th.telStart()
	v := r.vci
	th.stateBegin(v, simlock.High)
	if r.freed {
		th.stateEnd(v, simlock.High)
		panic("mpi: OnComplete on a freed request")
	}
	if r.onComplete != nil || r.cq != nil {
		th.stateEnd(v, simlock.High)
		panic("mpi: OnComplete registered twice")
	}
	r.onComplete = fn
	if r.complete {
		// Late registration: the completion already happened, so the
		// dispatch the progress engine would have done runs here, still
		// exactly once and still under the shard section.
		r.fire(th.S.Now())
	}
	th.stateEnd(v, simlock.High)
	th.telCall("OnComplete", tel)
}

// fire dispatches the registered continuation exactly once: the callback
// observes the completed request (payload, error code), then the runtime
// frees it and recycles provably-dead fault-free objects. Runs in engine
// or CS context, from markComplete or a late OnComplete registration.
// Errors reach the callback as the err argument — continuation delivery
// replaces the Wait-side error handler, so a failed request's code is
// always seen by fn before the object can be recycled (errored requests
// are never pooled, the PR-6 invariant).
func (r *Request) fire(at sim.Time) {
	fn := r.onComplete
	r.onComplete = nil
	//simcheck:allow hotalloc continuation dispatch; callback work is the registrant's and is modeled by the registrant
	fn(r, r.Err())
	r.free()
	r.recycle()
}

// CompletionQueue is the event-queue completion API of continuation mode:
// completed requests are delivered onto it by the progress engine and the
// owning thread drains them with Poll/WaitAny, paying the completion-
// object processing cost once per event instead of holding the critical
// section to poll. Delivered requests are already freed by the runtime;
// the drain side reads their payload and error, nothing more. A queue
// belongs to the thread that created it.
type CompletionQueue struct {
	th    *Thread
	done  []*Request
	ready func() bool // WaitAny's wake condition, built once per queue
}

// NewCompletionQueue creates a completion queue owned by this thread.
func (th *Thread) NewCompletionQueue() *CompletionQueue {
	if !th.P.w.eventDriven() {
		panic("mpi: CompletionQueue requires ProgressStrong or ProgressContinuation")
	}
	q := &CompletionQueue{th: th}
	q.ready = func() bool { return len(q.done) > 0 || th.P.crashed }
	return q
}

// Add registers the request for delivery onto the queue when it
// completes (immediately, if it already has). Like OnComplete, the
// runtime frees the request at delivery; it must not be waited on.
func (q *CompletionQueue) Add(r *Request) {
	th := q.th
	v := r.vci
	th.stateBegin(v, simlock.High)
	q.addLocked(r, th.S.Now())
	th.stateEnd(v, simlock.High)
}

// addLocked registers one request; the caller holds r's shard section.
func (q *CompletionQueue) addLocked(r *Request, at sim.Time) {
	if r.freed {
		panic("mpi: CompletionQueue.Add on a freed request")
	}
	if r.onComplete != nil || r.cq != nil {
		panic("mpi: CompletionQueue.Add on a request with a continuation")
	}
	if r.complete {
		r.free()
		q.push(r, at)
		return
	}
	r.cq = q
}

// push appends a delivered completion and wakes the owner if it is
// parked. Runs in engine or CS context.
func (q *CompletionQueue) push(r *Request, at sim.Time) {
	//simcheck:allow hotalloc completion-event buffer; bounded by the owner's outstanding requests and reused across drains
	q.done = append(q.done, r)
	p := q.th.P
	if w := p.w; w.tel != nil {
		w.tel.CQDepth(at, int64(len(q.done)))
	}
	p.activity.WakeAll(at)
}

// Len returns the number of delivered, undrained completions.
func (q *CompletionQueue) Len() int { return len(q.done) }

// Poll drains one delivered completion, or returns nil if none is
// queued. Never blocks and never acquires the critical section.
func (q *CompletionQueue) Poll() *Request {
	if len(q.done) == 0 {
		return nil
	}
	return q.take()
}

// WaitAny blocks until a completion is delivered, then drains it. The
// owner parks on the proc's activity queue until its queue is non-empty
// or the proc crashed; wakes for other threads' events re-park it without
// resuming it.
func (q *CompletionQueue) WaitAny() *Request {
	th := q.th
	for len(q.done) == 0 {
		th.checkCrashed()
		th.P.activity.WaitUntil(th.S, q.ready)
	}
	return q.take()
}

// take removes the oldest delivered completion, charging the completion-
// object processing cost (the drain side's analogue of Wait's
// RequestFreeWork; the free itself already ran at delivery).
func (q *CompletionQueue) take() *Request {
	r := q.done[0]
	q.done[0] = nil
	q.done = q.done[1:]
	if len(q.done) == 0 {
		// Reset so the backing array is reused across drains.
		q.done = q.done[:0]
	}
	th := q.th
	th.S.Sleep(th.cost().RequestFreeWork)
	if w := th.P.w; w.tel != nil {
		w.tel.CQDepth(th.S.Now(), int64(len(q.done)))
	}
	return r
}

// ensureCQ returns the thread's internal completion queue (continuation-
// mode Waitall drains through it; it is always empty between calls).
func (th *Thread) ensureCQ() *CompletionQueue {
	if th.cq == nil {
		th.cq = th.NewCompletionQueue()
	}
	return th.cq
}

// waitEvent is Wait under strong progress or continuations: check the
// request under its shard's state section, then park until a completion
// event wakes the proc — no progress-loop (low-class) acquisitions at
// all. The completion-sequence snapshot closes the window between the
// checked state section and the park: any completion in between bumps
// the sequence and the waiter re-checks instead of parking.
func (th *Thread) waitEvent(r *Request) error {
	p := th.P
	cost := th.cost()
	tel := th.telStart()
	for {
		th.checkCrashed()
		seq := p.completeSeq
		v := r.vci
		th.stateBegin(v, simlock.High)
		if r.complete {
			if r.freed {
				th.stateEnd(v, simlock.High)
				panic("mpi: Wait on a request with a continuation attached")
			}
			th.S.Sleep(cost.RequestFreeWork)
			r.free()
			th.stateEnd(v, simlock.High)
			th.telCall("Wait", tel)
			return r.release()
		}
		th.stateEnd(v, simlock.High)
		if p.completeSeq == seq {
			p.activity.Wait(th.S)
		}
	}
}

// waitallEvent is Waitall under strong progress: sweep the completed
// requests shard by shard (state sections at high class), park until the
// next completion event, repeat. The waiter never runs the progress
// engine; the per-shard daemons do.
func (th *Thread) waitallEvent(rs []*Request) error {
	p := th.P
	ws := newWaitSet(th, rs)
	tel := th.telStart()
	for {
		th.checkCrashed()
		seq := p.completeSeq
		// Only requests complete before the sweep are freed: reaping
		// live here would let the daemons' completions during the sweep
		// extend it, a different runtime than the snapshot models.
		th.checkDone(ws.pending, false, ws.take)
		if len(ws.pending) == 0 {
			th.telCall("Waitall", tel)
			return ws.firstErr
		}
		if p.completeSeq == seq {
			p.activity.Wait(th.S)
		}
	}
}

// waitallCont is Waitall under continuations: register every request on
// the thread's completion queue in one batched pass (one state section
// per involved shard), then drain exactly that many completion events.
// The progress daemons free each request at delivery, so the drain loop
// takes no locks at all — the per-request progress-loop re-acquisitions
// of the polling shape disappear entirely.
func (th *Thread) waitallCont(rs []*Request) error {
	p := th.P
	tel := th.telStart()
	q := th.ensureCQ()
	var buf [64]bool
	mark := newShardSet(buf[:], len(p.vcis))
	for _, r := range rs {
		mark[r.vci] = true
	}
	for v := range mark {
		if !mark[v] {
			continue
		}
		th.stateBegin(v, simlock.High)
		for _, r := range rs {
			if r.vci == v {
				q.addLocked(r, th.S.Now())
			}
		}
		th.stateEnd(v, simlock.High)
	}
	var firstErr error
	for n := len(rs); n > 0; n-- {
		r := q.WaitAny()
		if r.err != nil {
			// Continuation delivery replaces Wait's error-handler site:
			// raise through the communicator handler (panic under
			// MPI_ERRORS_ARE_FATAL), reporting the first error.
			if err := r.raise(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	th.telCall("Waitall", tel)
	return firstErr
}
