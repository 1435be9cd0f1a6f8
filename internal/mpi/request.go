package mpi

import "mpicontend/internal/sim"

// ReqKind distinguishes request flavours.
type ReqKind int

const (
	// SendReq is a two-sided send request.
	SendReq ReqKind = iota
	// RecvReq is a two-sided receive request.
	RecvReq
	// RMAReq is a one-sided operation in flight.
	RMAReq
)

// String names the request kind.
func (k ReqKind) String() string {
	switch k {
	case SendReq:
		return "send"
	case RecvReq:
		return "recv"
	case RMAReq:
		return "rma"
	default:
		return "unknown"
	}
}

// Request is an MPI request object. Its lifecycle follows the paper's
// Fig. 3b state diagram: issued -> (posted) -> completed -> freed. A
// request that is completed but not yet freed is "dangling" (§4.4).
type Request struct {
	p    *Proc
	kind ReqKind

	src, dst int // peer ranks (src for recv matching, dst for send)
	tag      int
	ctx      int
	bytes    int64

	payload interface{} // send payload / received data after completion

	complete    bool
	freed       bool
	completedAt sim.Time

	// send protocol state
	rndv bool

	// rma op state
	win *Win

	// comm the request was issued on (nil for RMA ops); resolves the
	// error handler.
	comm *Comm
	// maxBytes bounds the receive buffer (IrecvN); -1 means unbounded.
	maxBytes int64
	// err records the failure that completed the request, if any.
	err *Error
	// deadline is the armed per-request timeout (reliable mode only).
	deadline *sim.Timer

	// poolable marks requests whose object provably dies at release time
	// (fault-free sends and RMA put/accumulate: nothing reads them after
	// the error handler ran). Receives and gets are excluded because
	// callers read Data() after waiting; reliable-mode requests because
	// retransmit state may still reference them.
	poolable bool
	// nextFree links its shard's request free list while pooled.
	nextFree *Request

	// onComplete is the registered continuation (progressd.go): dispatched
	// by the progress engine exactly once, at completion time, after which
	// the runtime frees the request itself.
	onComplete func(r *Request, err error)
	// cq, when non-nil, delivers the completed request onto the owning
	// thread's completion queue instead of a callback.
	cq *CompletionQueue

	// vci is the virtual communication interface the request lives on
	// from issue to free (always 0 in the unsharded runtime).
	vci int
	// part links the inner request of a partitioned epoch back to its
	// persistent Prequest (partitioned.go); nil for ordinary requests.
	// Partitioned receives live on vciShard.pposted, not posted.
	part *Prequest
}

// Err returns the error that failed the request, or nil. Valid once the
// request completed (after Test returns true or Wait returns).
func (r *Request) Err() error {
	if r.err == nil {
		return nil
	}
	return r.err
}

// Complete reports whether the request has completed.
func (r *Request) Complete() bool { return r.complete }

// Freed reports whether the request was freed.
func (r *Request) Freed() bool { return r.freed }

// Bytes returns the message size.
func (r *Request) Bytes() int64 { return r.bytes }

// Kind returns the request kind.
func (r *Request) Kind() ReqKind { return r.kind }

// Data returns the payload delivered by a completed receive or RMA get.
func (r *Request) Data() interface{} { return r.payload }

// markComplete transitions the request to the completed state; it becomes
// dangling until freed. Must run in engine or CS context.
//
//simcheck:hotpath request-completion path, runs once per message
func (r *Request) markComplete(at sim.Time) {
	if r.complete {
		panic("mpi: request completed twice")
	}
	r.complete = true
	r.completedAt = at
	if r.deadline != nil {
		r.deadline.Cancel()
		r.deadline = nil
	}
	r.p.w.danglingNow++
	r.p.danglingNow++
	r.p.w.completedTotal++
	if w := r.p.w; w.tel != nil {
		w.tel.Dangling(at, int64(w.danglingNow))
	}
	if r.p.w.Cfg.SelectiveWakeup {
		// Event-driven progress (§9): completions wake parked waiters.
		r.p.activity.WakeAll(at)
	}
	if r.p.w.eventDriven() {
		// Strong/continuation progress (progressd.go): bump the proc's
		// completion sequence (closes the check-then-park window of
		// waitEvent/waitallEvent), dispatch any registered continuation or
		// completion-queue delivery from right here — the completing
		// context — and wake parked waiters.
		r.p.completeSeq++
		if r.cq != nil {
			r.deliverCQ(at)
		} else if r.onComplete != nil {
			//simcheck:allow hotalloc continuation dispatch escapes the receiver; fires once per completed request
			r.fire(at)
		}
		r.p.activity.WakeAll(at)
	}
}

// deliverCQ hands the completed request to its completion queue: the
// runtime frees it here, in the completing context, and the drain side
// only reads payload and error afterwards. CQ-delivered requests are
// never recycled — the drained object stays readable.
func (r *Request) deliverCQ(at sim.Time) {
	q := r.cq
	r.cq = nil
	r.free()
	q.push(r, at)
}

// fail completes the request unsuccessfully with the given error class.
// A timed-out receive is withdrawn from the posted queue so a later
// arrival cannot match (and double-complete) it. No-op if the request
// already completed or was freed. Must run in engine or CS context.
func (r *Request) fail(code Errcode, at sim.Time) {
	if r.complete || r.freed {
		return
	}
	//simcheck:allow hotalloc error construction runs once per failed request, not per message
	r.err = &Error{Code: code, Detail: r.describe()}
	if r.kind == RecvReq {
		sh := r.p.vcis[r.vci]
		if r.part != nil {
			// Partitioned receives post on the partitioned queue.
			sh.pposted = withdraw(sh.pposted, r)
		} else {
			sh.posted = withdraw(sh.posted, r)
		}
	}
	r.p.w.requestFailures++
	r.markComplete(at)
	// Failed requests must wake their waiters even without
	// SelectiveWakeup parking: completion polling notices on the next
	// progress round, but parked threads need the nudge.
	r.p.activity.WakeAll(at)
}

// free releases a completed request. Must be called with the CS held.
func (r *Request) free() {
	if !r.complete {
		panic("mpi: freeing incomplete request")
	}
	if r.freed {
		panic("mpi: request freed twice")
	}
	r.freed = true
	r.p.w.danglingNow--
	r.p.danglingNow--
	r.p.outstanding--
	if w := r.p.w; w.tel != nil {
		w.tel.Dangling(w.Eng.Now(), int64(w.danglingNow))
	}
	if r.win != nil {
		r.win.pending--
	}
}

// release runs the error handler for a freed request and, when the object
// is provably dead, returns it to its shard's pool. The caller must not
// touch r afterwards (standard MPI: a waited-on request is inactive).
func (r *Request) release() error {
	err := r.raise()
	r.recycle()
	return err
}

// envelope is an entry of the unexpected-message queue: a message (eager,
// with buffered payload) or a rendezvous RTS that arrived before a matching
// receive was posted.
type envelope struct {
	src, tag, ctx int
	bytes         int64
	payload       interface{}
	rndv          bool
	senderReq     *Request // rendezvous: origin request to CTS back to
	arrivedAt     sim.Time
	vci           int // shard the message arrived on (0 when unsharded)
}

// matches reports whether the envelope satisfies a receive for (src, tag,
// ctx) honouring AnySource and AnyTag.
func (e *envelope) matches(src, tag, ctx int) bool {
	if e.ctx != ctx {
		return false
	}
	if src != AnySource && e.src != src {
		return false
	}
	if tag != AnyTag && e.tag != tag {
		return false
	}
	return true
}

// matchesRecv reports whether a posted receive r accepts an arrival from
// (src, tag, ctx).
func matchesRecv(r *Request, src, tag, ctx int) bool {
	if r.ctx != ctx {
		return false
	}
	if r.src != AnySource && r.src != src {
		return false
	}
	if r.tag != AnyTag && r.tag != tag {
		return false
	}
	return true
}
