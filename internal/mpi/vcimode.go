package mpi

// This file holds the per-VCI runtime: the shard type holding one
// virtual communication interface's matching queues, completion queue,
// request pool and critical-section lock, and the few places where one
// shard and many shards model genuinely different runtimes — each kept
// once, as a commented condition: the shared-NIC injection lock
// (sendShard), driver-level revocation (Proc.onPacket) and the wait
// family's pre-poll completion check (lockedCheck/checkDone). Every
// operation names exactly one shard (selectVCI), so a request lives on
// one shard from issue to free. Everything else is one shard-indexed
// code path; a one-VCI proc is the paper's global critical section as
// shard 0. The section primitives themselves live in granularity.go.

import (
	"mpicontend/internal/fabric"
	"mpicontend/internal/mpi/vci"
	"mpicontend/internal/simlock"
)

// vciShard is one virtual communication interface of a proc: an
// independent slice of the runtime — matching queues, completion queue,
// request pool — guarded by its own critical-section lock. Two operations
// mapped to different shards of the same proc never contend; the only
// remaining arbitration between them is the shared-NIC injection lock
// (Proc.nicVCI) and the physical NIC serialization in the fabric.
type vciShard struct {
	cs     csLock
	posted []*Request       // posted receive queue
	unexp  []*envelope      // unexpected message queue
	cq     []*fabric.Packet // network completion queue

	// Partitioned communication keeps its own matching space: a
	// partitioned aggregate must never match an eager/rendezvous receive
	// with the same (comm, tag, src) and vice versa (MPI-4.0 separates
	// the channels). pposted holds started Precv requests; punexp
	// accumulates partition arrivals that beat their Precv's Start.
	pposted []*Request
	punexp  []*penvelope

	// reqFree pools request objects of this shard (see Request.poolable
	// for the safety conditions).
	reqFree *Request
}

// selectVCI maps an operation on comm c to its shard: the comm's SetVCI
// pin when it has one, else the hash of its context id.
func (p *Proc) selectVCI(c *Comm) int {
	return vci.Select(c.ctx, c.vciHint(), len(p.vcis))
}

// allocReq returns a zeroed request from shard v's pool.
func (p *Proc) allocReq(v int) *Request {
	sh := p.vcis[v]
	if r := sh.reqFree; r != nil {
		sh.reqFree = r.nextFree
		*r = Request{}
		return r
	}
	return new(Request)
}

// recycle returns a freed request to its shard's pool when the object
// provably dies here: poolable, and never failed (late protocol events
// may still reference an errored request).
func (r *Request) recycle() {
	if !r.poolable || r.err != nil {
		return
	}
	sh := r.p.vcis[r.vci]
	r.nextFree = sh.reqFree
	sh.reqFree = r
}

// cqEmpty reports whether every shard's completion queue is empty (the
// selective-wakeup park condition).
func (p *Proc) cqEmpty() bool {
	for _, sh := range p.vcis {
		if len(sh.cq) > 0 {
			return false
		}
	}
	return true
}

// nicInjectWork is the driver-level CPU cost of handing one packet to the
// shared NIC while holding the injection lock: a cached descriptor write
// plus a posted (fire-and-forget) doorbell MMIO. The hold time is what a
// tuned driver achieves — short enough that a waiter usually gets the
// lock within its user-space spin budget, so the injection point only
// punishes locks with poor hand-off under burst pressure.
const nicInjectWork = 10

// sendShard injects a protocol packet of shard v. With several shards the
// shared NIC is the one arbitration site left between them: injection
// runs under the nicVCI lock (always high class — the driver does not
// discriminate), nested inside the caller's shard section, giving the
// invariant lock order shard CS -> NIC. A one-shard proc has nothing to
// arbitrate between — its own section already serializes injection — so
// it models no NIC lock at all.
func (p *Proc) sendShard(th *Thread, pkt *fabric.Packet, notifyTx bool, owner *Request) {
	if len(p.vcis) == 1 {
		p.send(pkt, notifyTx, owner)
		return
	}
	//simcheck:allow hotalloc lock-implementation layer; simlock state is per-lock and preallocated, not per-event
	p.nicVCI.enter(th, simlock.High)
	th.S.Sleep(nicInjectWork)
	p.send(pkt, notifyTx, owner)
	//simcheck:allow hotalloc lock-implementation layer; simlock state is per-lock and preallocated, not per-event
	p.nicVCI.exit(th, simlock.High)
}

// consumeRevoke applies a communicator revocation at driver level (engine
// context, see Proc.onPacket) — the sharded runtime's analogue of the
// progress loop's Revoke handling. Only reached with the fault-tolerance
// plane armed (Revoke packets do not otherwise exist), where the reliable
// transport is active and the ACK must be issued here, since the packet
// never reaches a progress loop.
func (p *Proc) consumeRevoke(pkt *fabric.Packet) {
	p.onRevoke(pkt, p.w.Eng.Now())
	if pkt.Rel && p.rel != nil {
		p.rel.ackDelivered(pkt)
	}
}

// lockedCheck reports whether the wait family's pre-poll completion check
// enters a state section before looking. The one-shard polling runtime
// does — completed or not, the check is one more acquisition of the
// global section, the paper's shape — while a sharded runtime checks
// lock-free and enters only the shards with something to free
// (checkDone). Strong progress always checks lock-free. Testall follows
// the same split after its polls: one shard frees inside the poll's
// hold, many shards through a lock-free checkDone.
func (p *Proc) lockedCheck() bool { return len(p.vcis) == 1 }

// checkDone is the wait family's completion check: fn runs on each
// request of rs that completed but is not yet freed, inside the state
// section of the request's shard, until fn returns false. A locked check
// (one shard, see lockedCheck) enters shard 0's section and looks under
// it. Otherwise the completed requests are
// snapshotted without a lock and each shard holding at least one opens
// its own section, in ascending order: a fixed one-shard sweep would
// funnel every wait-family caller through one lock and re-serialize
// exactly the independence sharding buys. When nothing has completed, a
// lock-free check opens no section at all.
func (th *Thread) checkDone(rs []*Request, locked bool, fn func(i int, r *Request) bool) {
	if locked {
		th.stateBegin(0, simlock.High)
		forDone(rs, fn)
		th.stateEnd(0, simlock.High)
		return
	}
	type snap struct {
		i int
		r *Request
	}
	var snapBuf [16]snap
	var shardBuf [64]bool
	snaps := snapBuf[:0]
	done := newShardSet(shardBuf[:], len(th.P.vcis))
	for i, r := range rs {
		if r != nil && r.complete && !r.freed {
			done[r.vci] = true
			snaps = append(snaps, snap{i, r})
		}
	}
	for v, on := range done {
		if !on {
			continue
		}
		more := true
		th.stateBegin(v, simlock.High)
		for _, s := range snaps {
			if s.r.vci == v && s.r.complete && !s.r.freed {
				if more = fn(s.i, s.r); !more {
					break
				}
			}
		}
		th.stateEnd(v, simlock.High)
		if !more {
			return
		}
	}
}

// forDone runs fn on each completed, unfreed request of rs in order,
// re-reading completion as it goes, until fn returns false.
func forDone(rs []*Request, fn func(i int, r *Request) bool) {
	for i, r := range rs {
		if r != nil && r.complete && !r.freed && !fn(i, r) {
			return
		}
	}
}

// anyActive reports whether rs holds a request that is neither nil nor
// freed (MPI's active requests; nil and freed ones act as
// MPI_REQUEST_NULL).
func anyActive(rs []*Request) bool {
	for _, r := range rs {
		if r != nil && !r.freed {
			return true
		}
	}
	return false
}

// shardSet is a reusable per-call scratch marking which shards a wait
// family call must poll this round.
type shardSet []bool

// newShardSet returns an empty set over n shards, backed by buf when it
// is large enough (callers pass a stack array, keeping the common case
// off the heap).
func newShardSet(buf []bool, n int) shardSet {
	if n > len(buf) {
		return make(shardSet, n)
	}
	return buf[:n]
}

// gather marks the shards of the still-pending requests. With no request
// pending it marks shard 0, so the caller still polls once (a request
// failed by a timer between rounds is reaped there).
func (s shardSet) gather(rs []*Request) {
	for i := range s {
		s[i] = false
	}
	any := false
	for _, r := range rs {
		if r == nil || r.complete || r.freed {
			continue
		}
		any = true
		s[r.vci] = true
	}
	if !any {
		s[0] = true
	}
}

// progressOn runs one progress round at class cl, with post, on each
// shard marked in s in ascending order. It reports true as soon as stop
// (when non-nil) does after a round.
func (th *Thread) progressOn(s shardSet, cl simlock.Class, post func(), stop func() bool) bool {
	for v, on := range s {
		if !on {
			continue
		}
		th.progressRound(v, cl, post)
		if stop != nil && stop() {
			return true
		}
	}
	return false
}
