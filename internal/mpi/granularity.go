package mpi

// This file defines the critical-section protocol itself, the only one
// the runtime has: every section an MPI call opens is named by the VCI
// shard it guards. mainBegin/mainEnd, stateBegin/stateEnd and
// progressRound take that shard index and are the one place the
// configured Granularity is switched on. A section never spans more than
// one shard. The global critical section of the paper is shard 0 of a
// one-VCI proc. Brief/Fine/LockFree only ever see v == 0, because
// NewWorld rejects more than one VCI under any granularity but
// GranGlobal. The helpers open and close sections across function
// boundaries by design; the lockpair analyzer enforces pairing at their
// call sites throughout the package.
//
//simcheck:allow-file lockpair protocol wrappers; pairing is enforced at call sites

import (
	"mpicontend/internal/fabric"
	"mpicontend/internal/machine"
	"mpicontend/internal/simlock"
	"mpicontend/internal/telemetry"
)

// Granularity selects the critical-section granularity of the runtime,
// after the paper's Fig. 1. Arbitration (Config.Lock) is the orthogonal
// dimension; §7 proposes studying their combination, which the
// "ablation-granularity" experiment does.
type Granularity int

const (
	// GranGlobal guards every call with one global critical section —
	// the paper's baseline and the subject of its analysis.
	GranGlobal Granularity = iota
	// GranBrief ("Brief Global", Fig. 1) shrinks the global section to
	// the queue/state updates; the rest of the main path runs outside.
	GranBrief
	// GranFine uses separate locks for the matching queues and the
	// network completion path, so injection and matching can overlap.
	GranFine
	// GranLockFree models idealized atomic queues: no mutual exclusion,
	// only per-operation atomic costs (Fig. 1's rightmost column; real
	// implementations use this only for reference counts).
	GranLockFree
)

// String names the granularity as in Fig. 1.
func (g Granularity) String() string {
	switch g {
	case GranGlobal:
		return "Global"
	case GranBrief:
		return "BriefGlobal"
	case GranFine:
		return "FineGrain"
	case GranLockFree:
		return "LockFree"
	default:
		return "Granularity(?)"
	}
}

// csLock pairs a lock with the runtime-state cache lines that follow its
// owner between cores: acquiring after a different core pays the line
// transfers.
type csLock struct {
	lock simlock.Lock
	// cfg is this lock's own simlock configuration: the csLock is the only
	// subscriber to its grant stream (trace), and an untraced proc's locks
	// have no subscriber.
	cfg        *simlock.Config
	lines      int64
	owner      machine.Place
	ownerValid bool

	// grants accumulates the §4.3 bias estimators and the §4.4 dangling
	// samples at each grant; nil unless the proc is traced.
	grants *simlock.GrantStats

	// Telemetry plane: tel is nil when disabled (the fast path is one
	// pointer nil check); id is the registered lock track, holdStart and
	// holdClass carry the current hold between enter and exit.
	tel       *telemetry.Recorder
	id        int
	holdStart int64
	holdClass uint8
}

// newCSLock builds a csLock of the world's lock kind with its own
// simlock configuration.
func (w *World) newCSLock(lines int64) csLock {
	cfg := &simlock.Config{Eng: w.Eng, Cost: w.Cfg.Cost}
	return csLock{lock: simlock.New(w.Cfg.Lock, cfg), cfg: cfg, lines: lines}
}

// trace subscribes the lock to its own grant stream: at the grant instant
// it folds the grant into its GrantStats and samples p's dangling-request
// count. The grant instant matters: the grantee resumes only after other
// events of the same nanosecond, which may complete or free requests.
func (c *csLock) trace(p *Proc) {
	c.grants = &simlock.GrantStats{}
	c.cfg.OnGrant = func(gi simlock.GrantInfo) { c.grants.Observe(gi, p.danglingNow) }
}

// instrument attaches the lock to the telemetry plane under the given
// track name. No-op when tel is nil.
func (c *csLock) instrument(tel *telemetry.Recorder, name string) {
	if tel == nil {
		return
	}
	c.tel = tel
	c.id = tel.RegisterLock(name)
}

// telClass maps the simlock scheduling class onto the telemetry alphabet.
func telClass(cl simlock.Class) uint8 {
	if cl == simlock.Low {
		return telemetry.ClassLow
	}
	return telemetry.ClassHigh
}

func (c *csLock) enter(th *Thread, cl simlock.Class) {
	var waitFrom int64
	if c.tel != nil {
		waitFrom = th.S.Now()
	}
	c.lock.Acquire(&th.lctx, cl)
	if c.tel != nil {
		now := th.S.Now()
		c.tel.LockWait(c.id, th.S.ID(), telClass(cl), waitFrom, now)
		c.holdStart = now
		c.holdClass = telClass(cl)
		th.holdUseful = false
	}
	if th.errPath {
		th.P.w.ft.errPathLocks++
	}
	if at := th.P.lockCrashAt; at > 0 && th.S.Now() >= at && !th.P.crashed {
		// Scheduled crash-on-lock-hold (fault.CrashSpec.OnLockHold): the
		// process dies right here, holding the lock it just won — the
		// section is never released and every local waiter is stranded.
		th.P.w.killRank(th.P.Rank)
		panic(rankCrashed{})
	}
	cost := th.cost()
	if c.ownerValid && c.owner != th.lctx.Place && c.lines > 0 {
		th.S.Sleep(c.lines * cost.Transfer(c.owner, th.lctx.Place))
	}
	c.owner = th.lctx.Place
	c.ownerValid = true
	if pl := th.P.w.plane; pl != nil {
		// Fault plane: lock-holder preemption. The stall lands just after
		// acquisition, so every waiter pays for it — the pathology the
		// critical-section arbitration must absorb.
		if stall := pl.PreemptStall(); stall > 0 {
			th.S.Sleep(stall)
		}
	}
}

func (c *csLock) exit(th *Thread, cl simlock.Class) {
	if c.tel != nil {
		c.tel.LockHold(c.id, th.S.ID(), c.holdClass, th.holdUseful,
			th.lctx.Place.Socket, th.lctx.Place.Core, c.holdStart, th.S.Now())
	}
	c.lock.Release(&th.lctx, cl)
}

// briefCSWork is the slice of the main path that stays inside the critical
// section under GranBrief/GranFine (the queue update itself).
const briefCSWork = 60

// mainBegin opens the main-path section of an MPI call mapped to shard v,
// charging the main-path work split according to the granularity: all of
// it inside the section (Global), only the queue update inside (Brief,
// Fine), or none of it guarded (LockFree). Callers must pair it with
// mainEnd.
func (th *Thread) mainBegin(v int) {
	th.checkCrashed()
	th.checkThreadLevel()
	cost := th.cost()
	p := th.P
	switch g := p.w.Cfg.Granularity; g {
	case GranGlobal, GranBrief:
		inside := cost.MainPathWork
		if g == GranBrief {
			// Sleep(0) would still schedule an event and yield, so the
			// global arm must not take this branch at all.
			th.S.Sleep(cost.MainPathWork - briefCSWork)
			inside = briefCSWork
		}
		p.vcis[v].cs.enter(th, simlock.High)
		th.S.Sleep(inside)
	case GranFine:
		th.S.Sleep(cost.MainPathWork - briefCSWork)
		p.queueCS.enter(th, simlock.High)
		th.S.Sleep(briefCSWork)
	case GranLockFree:
		th.S.Sleep(cost.MainPathWork + 2*cost.AtomicOpCost)
	}
}

// mainEnd closes the section opened by mainBegin.
func (th *Thread) mainEnd(v int) { th.stateEnd(v, simlock.High) }

// stateBegin opens a short request-state section on shard v (completion
// checks, frees) without charging main-path work.
func (th *Thread) stateBegin(v int, cl simlock.Class) {
	th.checkCrashed()
	th.checkThreadLevel()
	p := th.P
	switch p.w.Cfg.Granularity {
	case GranGlobal, GranBrief:
		p.vcis[v].cs.enter(th, cl)
	case GranFine:
		p.queueCS.enter(th, cl)
	case GranLockFree:
		th.S.Sleep(th.cost().AtomicOpCost)
	}
}

// stateEnd closes a stateBegin (or mainBegin) section.
func (th *Thread) stateEnd(v int, cl simlock.Class) {
	p := th.P
	switch p.w.Cfg.Granularity {
	case GranGlobal, GranBrief:
		p.vcis[v].cs.exit(th, cl)
	case GranFine:
		p.queueCS.exit(th, cl)
	case GranLockFree:
	}
	th.exitThreadLevel()
}

// progressRound runs one progress-engine iteration on shard v with the
// granularity's locking: under Global/Brief the whole poll holds the
// shard's section (the paper's progress loop); under Fine the completion
// queue is drained under the NIC lock and each event is handled under the
// queue lock; under LockFree only atomic costs are charged. cl is the
// scheduling class of the acquisitions (Low in blocking progress loops,
// High in MPI_Test). If post is non-nil it runs under request-state
// protection — inside the same critical-section hold where the
// granularity allows — letting callers check and free requests as
// MPICH's progress loop does.
func (th *Thread) progressRound(v int, cl simlock.Class, post func()) {
	th.checkCrashed()
	th.checkThreadLevel()
	defer th.exitThreadLevel()
	p := th.P
	cost := th.cost()
	switch p.w.Cfg.Granularity {
	case GranGlobal, GranBrief:
		p.vcis[v].cs.enter(th, cl)
		p.pollShard(th, v, 0)
		if post != nil {
			post()
		}
		p.vcis[v].cs.exit(th, cl)
	case GranFine:
		sh := p.vcis[v]
		p.nicCS.enter(th, cl)
		var pollFrom int64
		if p.w.tel != nil {
			pollFrom = th.S.Now()
		}
		th.S.Sleep(cost.ProgressPollWork)
		p.Polls++
		var pkts []*fabric.Packet
		for len(sh.cq) > 0 && len(pkts) < maxEventsPerPoll {
			pkts = append(pkts, sh.cq[0])
			sh.cq = sh.cq[1:]
		}
		th.holdUseful = len(pkts) > 0
		if p.w.tel != nil {
			p.w.tel.Poll(th.S.ID(), pollFrom, th.S.Now(), len(pkts))
		}
		p.nicCS.exit(th, cl)
		if len(pkts) == 0 {
			th.pollBackoff++
		} else {
			th.pollBackoff = 0
		}
		for _, pkt := range pkts {
			p.queueCS.enter(th, cl)
			th.S.Sleep(cost.ProgressHandleWork)
			p.handlePacket(th, pkt)
			if p.rel == nil {
				p.w.Fab.FreePacket(pkt) // see pollShard: fault-free packets die here
			}
			p.queueCS.exit(th, cl)
		}
		if post != nil {
			p.queueCS.enter(th, cl)
			post()
			p.queueCS.exit(th, cl)
		}
	case GranLockFree:
		// Idealized atomic queues: the shard's poll with one atomic
		// operation charged per poll and per handled event.
		p.pollShard(th, v, cost.AtomicOpCost)
		if post != nil {
			th.S.Sleep(cost.AtomicOpCost)
			post()
		}
	}
}
