package mpi

import (
	"mpicontend/internal/fabric"
	"mpicontend/internal/simlock"
)

// Isend starts a nonblocking send of a message with the given payload and
// size to rank dst. Small messages go eagerly; large ones use rendezvous.
// The main path runs inside the global critical section at high priority.
func (th *Thread) Isend(c *Comm, dst, tag int, bytes int64, payload interface{}) *Request {
	p := th.P
	cost := th.cost()
	worldDst := c.world(dst)
	v := p.selectVCI(c)
	tel := th.telStart()
	th.mainBegin(v)
	r := p.allocReq(v)
	*r = Request{
		p: p, kind: SendReq, dst: worldDst, src: p.Rank,
		tag: tag, ctx: c.ctx, bytes: bytes, payload: payload,
		comm: c, maxBytes: -1, poolable: p.rel == nil, vci: v,
	}
	p.outstanding++
	p.armDeadline(r)
	if p.ftIssue(r) {
		// Revoked context or known-dead peer: the request failed at issue
		// and nothing reaches the wire (fail-fast, ft.go).
		th.mainEnd(v)
		th.telCall("Isend", tel)
		return r
	}
	meta := rtsMeta{src: c.rank(p.Rank), tag: tag, ctx: c.ctx, bytes: bytes}
	if bytes <= cost.EagerThreshold {
		pkt := p.w.Fab.AllocPacket()
		*pkt = fabric.Packet{
			Kind: fabric.Eager, Src: p.Rank, Dst: worldDst,
			Bytes: bytes, Handle: r, Meta: meta, Payload: payload,
			VCI: v,
		}
		p.sendShard(th, pkt, true, r)
	} else {
		r.rndv = true
		pkt := p.w.Fab.AllocPacket()
		*pkt = fabric.Packet{
			Kind: fabric.RTS, Src: p.Rank, Dst: worldDst, Handle: r, Meta: meta,
			VCI: v,
		}
		p.sendShard(th, pkt, false, r)
	}
	th.mainEnd(v)
	th.telCall("Isend", tel)
	return r
}

// Irecv posts a nonblocking receive for (src, tag) on the communicator.
// If a matching message already sits in the unexpected queue it is consumed
// immediately (the Fig. 3b "found in unexpected queue" transition).
func (th *Thread) Irecv(c *Comm, src, tag int) *Request {
	return th.IrecvN(c, src, tag, -1)
}

// IrecvN is Irecv with a receive-buffer bound: a matching message larger
// than maxBytes fails the request with MPI_ERR_TRUNCATE (the transfer still
// drains, like MPICH's truncating receive, so the sender is not wedged).
// maxBytes < 0 means unbounded.
func (th *Thread) IrecvN(c *Comm, src, tag int, maxBytes int64) *Request {
	p := th.P
	v := p.selectVCI(c)
	tel := th.telStart()
	th.mainBegin(v)
	r := p.allocReq(v)
	*r = Request{p: p, kind: RecvReq, src: src, tag: tag, ctx: c.ctx,
		comm: c, maxBytes: maxBytes, vci: v}
	p.outstanding++
	p.armDeadline(r)
	if p.ftIssue(r) {
		th.mainEnd(v)
		th.telCall("Irecv", tel)
		return r
	}
	if e := p.matchUnexpectedShard(th, v, src, tag, c.ctx); e != nil {
		p.recvUnexpected(th, r, e)
	} else {
		p.vcis[v].posted = append(p.vcis[v].posted, r)
	}
	th.mainEnd(v)
	th.telCall("Irecv", tel)
	return r
}

// recvUnexpected completes receive r from an unexpected-queue entry
// already removed from its queue (the Fig. 3b "found in unexpected queue"
// transition). Runs inside the receive's main-path section.
func (p *Proc) recvUnexpected(th *Thread, r *Request, e *envelope) {
	cost := th.cost()
	th.S.Sleep(cost.UnexpectedMatchOverhead)
	r.bytes = e.bytes
	truncated := r.maxBytes >= 0 && e.bytes > r.maxBytes
	if e.rndv {
		// Late match of a rendezvous RTS: clear the sender to send. On
		// truncation the CTS still goes out so the sender drains and
		// completes; the guarded RData handler drops the payload.
		if truncated {
			r.fail(ErrTruncate, th.S.Now())
		}
		pkt := p.w.Fab.AllocPacket()
		*pkt = fabric.Packet{
			Kind: fabric.CTS, Src: p.Rank, Dst: e.src,
			Handle: e.senderReq, Meta: ctsMeta{recvReq: r},
			VCI: e.vci,
		}
		p.sendShard(th, pkt, false, nil)
	} else if truncated {
		r.fail(ErrTruncate, th.S.Now())
	} else {
		th.S.Sleep(cost.CopyTime(e.bytes)) // unexpected buffer -> user buffer
		r.payload = e.payload
		r.markComplete(th.S.Now())
	}
}

// Wait blocks until the request completes, then frees it. While waiting it
// iterates the progress loop, yielding the critical section between polls
// (low priority under the priority lock). The loop drives only the
// shard the request lives on.
// It returns the request's error, if any, after the configured error
// handler runs (MPI_ERRORS_ARE_FATAL, the default, panics instead of
// returning).
func (th *Thread) Wait(r *Request) error {
	if r.freed && !r.complete {
		return r.raiseAs(ErrRequest)
	}
	if th.P.w.eventDriven() {
		// Strong/continuation progress: park until a completion event
		// instead of iterating the progress loop (progressd.go).
		return th.waitEvent(r)
	}
	if r.freed {
		return r.raiseAs(ErrRequest)
	}
	cost := th.cost()
	tel := th.telStart()
	v := r.vci
	th.stateBegin(v, simlock.High)
	if r.complete {
		th.S.Sleep(cost.RequestFreeWork)
		r.free()
		th.stateEnd(v, simlock.High)
		th.telCall("Wait", tel)
		return r.release()
	}
	th.stateEnd(v, simlock.High)
	th.pollBackoff = 0
	done := false
	check := func() {
		if r.complete {
			th.S.Sleep(cost.RequestFreeWork)
			r.free()
			done = true
		}
	}
	for {
		th.progressRound(v, simlock.Low, check)
		if done {
			th.telCall("Wait", tel)
			return r.release()
		}
		th.progressYield()
	}
}

// waitSet is the pending remainder of one Waitall call.
type waitSet struct {
	th       *Thread
	pending  []*Request
	firstErr error
}

// newWaitSet holds the active (non-nil, unfreed) requests of rs.
func newWaitSet(th *Thread, rs []*Request) waitSet {
	s := waitSet{th: th, pending: make([]*Request, 0, len(rs))}
	for _, r := range rs {
		if r != nil && !r.freed {
			s.pending = append(s.pending, r)
		}
	}
	return s
}

// free frees pending[i], drops it from the set and runs its error
// handler, keeping the first error.
func (s *waitSet) free(i int) {
	r := s.pending[i]
	s.th.S.Sleep(s.th.cost().RequestFreeWork)
	r.free()
	last := len(s.pending) - 1
	s.pending[i] = s.pending[last]
	s.pending = s.pending[:last]
	if err := r.release(); err != nil && s.firstErr == nil {
		s.firstErr = err
	}
}

// reap frees every completed member (the progress-loop post).
func (s *waitSet) reap() {
	for i := 0; i < len(s.pending); {
		if s.pending[i].complete {
			s.free(i)
		} else {
			i++
		}
	}
}

// take frees member r, found completed by checkDone.
func (s *waitSet) take(_ int, r *Request) bool {
	for i, q := range s.pending {
		if q == r {
			s.free(i)
			break
		}
	}
	return true
}

// Waitall blocks until every request completes. Requests are freed as their
// completion is detected, so a starving caller leaves its completed
// requests dangling — the §4.4 effect. Each progress round polls only the
// shards that still have a pending request on them. It returns the first
// request error encountered (after the error handler runs); the remaining
// requests are still waited for and freed. Nil and freed requests are
// inactive and skipped.
func (th *Thread) Waitall(rs []*Request) error {
	if len(rs) == 0 {
		return nil
	}
	switch th.P.w.Cfg.Progress {
	case ProgressStrong:
		return th.waitallEvent(rs)
	case ProgressContinuation:
		return th.waitallCont(rs)
	}
	ws := newWaitSet(th, rs)
	tel := th.telStart()
	th.checkDone(rs, th.P.lockedCheck(), ws.take)
	if len(ws.pending) == 0 {
		th.telCall("Waitall", tel)
		return ws.firstErr
	}
	th.pollBackoff = 0
	var buf [64]bool
	shards := newShardSet(buf[:], len(th.P.vcis))
	finished := func() bool { return len(ws.pending) == 0 }
	for {
		shards.gather(ws.pending)
		if th.progressOn(shards, simlock.Low, ws.reap, finished) {
			th.telCall("Waitall", tel)
			return ws.firstErr
		}
		th.progressYield()
	}
}

// Test polls the runtime once and reports whether the request completed;
// if so, the request is freed. Test never enters the blocking progress
// loop, so under the priority lock it always runs at high priority — the
// paper's explanation for priority ≈ ticket in the Graph500/stencil runs.
func (th *Thread) Test(r *Request) bool {
	cost := th.cost()
	tel := th.telStart()
	done := false
	th.progressRound(r.vci, simlock.High, func() {
		if r.complete {
			th.S.Sleep(cost.RequestFreeWork)
			r.free()
			done = true
		}
	})
	th.telCall("Test", tel)
	if done {
		// Run the error handler (panic under MPI_ERRORS_ARE_FATAL);
		// under MPI_ERRORS_RETURN the caller inspects r.Err().
		_ = r.raise()
	}
	return done
}

// Testall polls each shard with a pending request once and returns the
// still-pending remainder (reusing rs's backing array). Each completed
// request is freed under its own shard's section: inside the poll's hold
// when the proc has one shard, and otherwise (see lockedCheck) through
// checkDone after the polls, so no shard's hold frees another's requests.
func (th *Thread) Testall(rs []*Request) []*Request {
	cost := th.cost()
	var failed []*Request
	reap := func(_ int, r *Request) bool {
		th.S.Sleep(cost.RequestFreeWork)
		r.free()
		if r.err != nil {
			failed = append(failed, r)
		}
		return true
	}
	var buf [64]bool
	shards := newShardSet(buf[:], len(th.P.vcis))
	shards.gather(rs)
	if th.P.lockedCheck() {
		th.progressOn(shards, simlock.High, func() { forDone(rs, reap) }, nil)
	} else {
		th.progressOn(shards, simlock.High, nil, nil)
		th.checkDone(rs, false, reap)
	}
	out := rs[:0]
	for _, r := range rs {
		if r != nil && !r.freed {
			out = append(out, r)
		}
	}
	for _, r := range failed {
		_ = r.raise()
	}
	return out
}

// CancelRecv cancels a posted receive that has not matched, removing it
// from the posted queue and releasing the request (MPI_Cancel semantics for
// receives). It panics if the request already completed — the caller must
// check Complete() first, inside its own synchronization.
func (th *Thread) CancelRecv(r *Request) {
	if r.kind != RecvReq {
		panic("mpi: CancelRecv on a non-receive request")
	}
	p := th.P
	cost := th.cost()
	v := r.vci
	th.stateBegin(v, simlock.High)
	th.S.Sleep(cost.RequestFreeWork)
	if r.complete {
		th.stateEnd(v, simlock.High)
		panic("mpi: CancelRecv on a completed request")
	}
	p.vcis[v].posted = withdraw(p.vcis[v].posted, r)
	r.cancel()
	th.stateEnd(v, simlock.High)
}

// withdraw removes r's entry, if any, from a posted queue.
func withdraw(q []*Request, r *Request) []*Request {
	for i, x := range q {
		if x == r {
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}

// cancel frees a receive withdrawn before it matched: its deadline is
// disarmed and it leaves the outstanding count without ever completing.
func (r *Request) cancel() {
	if r.deadline != nil {
		r.deadline.Cancel()
		r.deadline = nil
	}
	r.freed = true
	r.p.outstanding--
}

// Send is a blocking send (Isend + Wait).
func (th *Thread) Send(c *Comm, dst, tag int, bytes int64, payload interface{}) {
	th.Wait(th.Isend(c, dst, tag, bytes, payload)) //simcheck:allow errdrop blocking Send has no error result; the handler runs inside Wait
}

// Recv is a blocking receive (Irecv + Wait); it returns the payload.
func (th *Thread) Recv(c *Comm, src, tag int) interface{} {
	r := th.Irecv(c, src, tag)
	th.Wait(r) //simcheck:allow errdrop blocking Recv has no error result; the handler runs inside Wait
	return r.payload
}

// Sendrecv concurrently sends to dst and receives from src, blocking until
// both complete. It returns the received payload.
func (th *Thread) Sendrecv(c *Comm, dst, dtag int, bytes int64, payload interface{},
	src, stag int) interface{} {
	rr := th.Irecv(c, src, stag)
	sr := th.Isend(c, dst, dtag, bytes, payload)
	th.Waitall([]*Request{sr, rr}) //simcheck:allow errdrop blocking Sendrecv has no error result; the handler runs inside Waitall
	return rr.payload
}
