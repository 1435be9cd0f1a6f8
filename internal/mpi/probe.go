package mpi

import "mpicontend/internal/simlock"

// Status describes a matched or probed message.
type Status struct {
	Source int
	Tag    int
	Bytes  int64
}

// Iprobe checks, without receiving, whether a message matching (src, tag)
// is available (posted in the unexpected queue after one progress poll).
// Like MPI_Iprobe it is an immediate call: under the priority lock it runs
// at high priority. Related work (§8, Hoefler et al.) discusses why
// probe+recv is inherently racy with multiple threads — that race exists
// here too, by design: another thread may consume the probed message
// before this thread posts its receive.
func (th *Thread) Iprobe(c *Comm, src, tag int) (Status, bool) {
	var st Status
	found := false
	p := th.P
	v := p.selectVCI(c)
	th.progressRound(v, simlock.High, func() {
		for _, e := range p.vcis[v].unexp {
			if e.matches(src, tag, c.ctx) {
				st = Status{Source: e.src, Tag: e.tag, Bytes: e.bytes}
				found = true
				break
			}
		}
	})
	return st, found
}

// Probe blocks until a matching message is available and returns its
// status, without receiving it.
func (th *Thread) Probe(c *Comm, src, tag int) Status {
	th.pollBackoff = 0
	for {
		if st, ok := th.Iprobe(c, src, tag); ok {
			return st
		}
		th.progressYield()
	}
}

// Waitany blocks until one of the active requests completes, frees it,
// and returns its index. Nil and freed requests are inactive (MPI's
// MPI_REQUEST_NULL); with no active request it returns -1 at once, MPI's
// MPI_UNDEFINED.
func (th *Thread) Waitany(rs []*Request) int {
	if !anyActive(rs) {
		return -1
	}
	cost := th.cost()
	idx := -1
	take := func(i int, r *Request) bool {
		th.S.Sleep(cost.RequestFreeWork)
		r.free()
		idx = i
		return false
	}
	th.checkDone(rs, th.P.lockedCheck(), take)
	if idx >= 0 {
		return idx
	}
	th.pollBackoff = 0
	var buf [64]bool
	shards := newShardSet(buf[:], len(th.P.vcis))
	check := func() { forDone(rs, take) }
	found := func() bool { return idx >= 0 }
	for {
		shards.gather(rs)
		if th.progressOn(shards, simlock.Low, check, found) {
			return idx
		}
		th.progressYield()
	}
}

// Waitsome blocks until at least one active request completes, frees all
// the completed ones, and returns their indices. With no active request
// (every one nil or freed) it returns nil at once.
func (th *Thread) Waitsome(rs []*Request) []int {
	if !anyActive(rs) {
		return nil
	}
	cost := th.cost()
	var done []int
	reap := func(i int, r *Request) bool {
		th.S.Sleep(cost.RequestFreeWork)
		r.free()
		done = append(done, i)
		return true
	}
	th.checkDone(rs, th.P.lockedCheck(), reap)
	if len(done) > 0 {
		return done
	}
	th.pollBackoff = 0
	var buf [64]bool
	shards := newShardSet(buf[:], len(th.P.vcis))
	check := func() { forDone(rs, reap) }
	found := func() bool { return len(done) > 0 }
	for {
		shards.gather(rs)
		if th.progressOn(shards, simlock.Low, check, found) {
			return done
		}
		th.progressYield()
	}
}
