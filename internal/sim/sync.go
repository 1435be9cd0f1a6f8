package sim

// This file provides small blocking building blocks used by higher layers:
// a FIFO wait queue, a counting barrier, and a channel-like mailbox. All of
// them operate on simthreads and virtual time.

import "fmt"

// WaitQueue is a FIFO queue of parked threads, linked intrusively through
// Thread so that queueing never allocates. A thread is on at most one
// queue at a time.
type WaitQueue struct {
	head, tail *Thread
	n          int
}

// Len returns the number of waiting threads.
func (w *WaitQueue) Len() int { return w.n }

// push appends t at the tail.
func (w *WaitQueue) push(t *Thread) {
	if t.wq != nil {
		panic(fmt.Sprintf("sim: thread %q is already on a wait queue", t.name))
	}
	t.wq = w
	if w.tail == nil {
		w.head = t
	} else {
		w.tail.qnext = t
	}
	w.tail = t
	w.n++
}

// unlink removes t, whose predecessor is prev (nil at the head).
func (w *WaitQueue) unlink(prev, t *Thread) {
	if prev == nil {
		w.head = t.qnext
	} else {
		prev.qnext = t.qnext
	}
	if w.tail == t {
		w.tail = prev
	}
	t.qnext, t.wq = nil, nil
	w.n--
}

// Wait parks the calling thread until a matching WakeOne/WakeAll.
func (w *WaitQueue) Wait(t *Thread) {
	w.push(t)
	t.Park()
}

// WaitUntil parks the calling thread on the queue until ready() holds. It
// is the loop
//
//	for !ready() {
//		w.Wait(t)
//	}
//
// for a waiter that does nothing between wakes but re-check ready, and it
// lets the engine skip the re-checks that fail: at each wake the engine
// evaluates ready itself and, while it is false, re-queues t at the tail
// without resuming it — the same state transitions and queue order as the
// loop, minus the coroutine switch. ready must only read simulation state.
func (w *WaitQueue) WaitUntil(t *Thread, ready func() bool) {
	for !ready() {
		t.until, t.untilQ = ready, w
		w.Wait(t)
		t.until, t.untilQ = nil, nil
	}
}

// WakeOne unparks the oldest waiter at time at and returns it, or nil if
// the queue is empty.
func (w *WaitQueue) WakeOne(at Time) *Thread {
	t := w.head
	if t == nil {
		return nil
	}
	w.unlink(nil, t)
	t.Unpark(at)
	return t
}

// WakeAll unparks every waiter at time at, oldest first, and returns how
// many were woken.
func (w *WaitQueue) WakeAll(at Time) int {
	n := w.n
	for w.head != nil {
		w.WakeOne(at)
	}
	return n
}

// Remove deletes t from the queue without waking it. It reports whether t
// was present.
func (w *WaitQueue) Remove(t *Thread) bool {
	if t.wq != w {
		return false
	}
	var prev *Thread
	for x := w.head; x != t; x = x.qnext {
		prev = x
	}
	w.unlink(prev, t)
	return true
}

// Barrier blocks N participants until all have arrived, modelling an
// OpenMP-style thread barrier. The last arrival releases the others after
// the configured release latency (fan-out cost).
type Barrier struct {
	N       int
	Release Time // per-release wake latency; zero is allowed

	waiting WaitQueue
	arrived int
	// generation counting is implicit: all waiters of a generation are
	// released before any participant can re-enter, because release
	// happens synchronously in virtual time before the waker proceeds.
}

// Wait blocks t until all N participants have called Wait. It returns the
// time spent blocked in virtual nanoseconds.
func (b *Barrier) Wait(t *Thread) Time {
	start := t.Now()
	b.arrived++
	if b.arrived == b.N {
		b.arrived = 0
		b.waiting.WakeAll(t.Now() + b.Release)
		if b.Release > 0 {
			t.Sleep(b.Release)
		}
		return t.Now() - start
	}
	b.waiting.Wait(t)
	return t.Now() - start
}

// Mailbox is an unbounded FIFO of values with blocking receive, used to
// model queues between simulated agents (e.g. a NIC completion queue).
type Mailbox struct {
	items []interface{}
	recvq WaitQueue
}

// Put appends v and wakes one blocked receiver (at time at).
func (m *Mailbox) Put(at Time, v interface{}) {
	m.items = append(m.items, v)
	m.recvq.WakeOne(at)
}

// TryGet removes and returns the oldest value, or nil and false when empty.
func (m *Mailbox) TryGet() (interface{}, bool) {
	if len(m.items) == 0 {
		return nil, false
	}
	v := m.items[0]
	copy(m.items, m.items[1:])
	m.items[len(m.items)-1] = nil
	m.items = m.items[:len(m.items)-1]
	return v, true
}

// Get blocks until a value is available and returns it.
func (m *Mailbox) Get(t *Thread) interface{} {
	for {
		if v, ok := m.TryGet(); ok {
			return v
		}
		m.recvq.Wait(t)
	}
}

// Len returns the number of queued values.
func (m *Mailbox) Len() int { return len(m.items) }
