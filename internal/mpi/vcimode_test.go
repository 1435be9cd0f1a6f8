package mpi

import (
	"fmt"
	"testing"

	"mpicontend/internal/fault"
	"mpicontend/internal/mpi/vci"
	"mpicontend/internal/simlock"
	"mpicontend/internal/telemetry"
)

// withVCIs is a testWorld option enabling the sharded runtime.
func withVCIs(n int) func(*Config) {
	return func(c *Config) { c.VCIs = n }
}

// pinnedComms returns k setup communicators pinned round-robin to the
// world's VCIs: comm i carries its traffic on shard i % VCIs.
func pinnedComms(w *World, k int) []*Comm {
	cs := make([]*Comm, k)
	for i := range cs {
		cs[i] = w.SetupComm().SetVCI(i % w.Cfg.VCIs)
	}
	return cs
}

// shardSpan records the shards a test's requests were issued on, so a
// sharded test can prove its traffic really spans several shards.
type shardSpan map[int]bool

// add records r's shard and returns r.
func (s shardSpan) add(r *Request) *Request {
	s[r.vci] = true
	return r
}

// require fails the test unless at least min distinct shards were used.
func (s shardSpan) require(t *testing.T, min int) {
	t.Helper()
	if len(s) < min {
		t.Errorf("traffic spanned %d shards %v, want at least %d", len(s), s, min)
	}
}

// TestVCIPerCommMapping: every operation of an unpinned communicator
// lands on one shard regardless of tag, the shard its context hash names;
// a second communicator (different context) maps independently. The
// receive side must agree with the send side, or matching would silently
// fall apart.
func TestVCIPerCommMapping(t *testing.T) {
	const n = 4
	w := testWorld(t, 2, withVCIs(n))
	c := w.Comm()
	d := w.SetupComm()
	tags := []int{0, 1, 7, 19, 31}
	vcis := map[string]int{}
	w.Spawn(0, "sender", func(th *Thread) {
		var rs []*Request
		for _, tag := range tags {
			for _, cm := range []*Comm{c, d} {
				r := th.Isend(cm, 1, tag, 64, tag)
				vcis[fmt.Sprintf("send ctx=%d tag=%d", cm.ctx, tag)] = r.vci
				rs = append(rs, r)
			}
		}
		if err := th.Waitall(rs); err != nil {
			t.Errorf("waitall: %v", err)
		}
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		var rs []*Request
		for _, tag := range tags {
			for _, cm := range []*Comm{c, d} {
				r := th.Irecv(cm, 0, tag)
				vcis[fmt.Sprintf("recv ctx=%d tag=%d", cm.ctx, tag)] = r.vci
				rs = append(rs, r)
			}
		}
		if err := th.Waitall(rs); err != nil {
			t.Errorf("waitall: %v", err)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for _, cm := range []*Comm{c, d} {
		want := vci.Select(cm.ctx, vci.NoHint, n)
		for _, tag := range tags {
			for _, side := range []string{"send", "recv"} {
				key := fmt.Sprintf("%s ctx=%d tag=%d", side, cm.ctx, tag)
				if got := vcis[key]; got != want {
					t.Errorf("%s: shard %d, want %d", key, got, want)
				}
			}
		}
	}
	if w.DanglingNow() != 0 {
		t.Fatalf("dangling requests leaked: %d", w.DanglingNow())
	}
}

// TestVCIExplicitMapping: explicitly placed communicators (setup-time dup
// + SetVCI) pin their traffic to the named shard — the collision-free
// per-thread pattern the VCI literature recommends — while unpinned comms
// fall back to the context hash.
func TestVCIExplicitMapping(t *testing.T) {
	const n = 4
	w := testWorld(t, 2, withVCIs(n))
	comms := make([]*Comm, n)
	for k := range comms {
		comms[k] = w.SetupComm().SetVCI(k)
	}
	plain := w.Comm()
	got := make([]interface{}, n)
	vcis := make([]int, n)
	var plainVCI int
	w.Spawn(0, "sender", func(th *Thread) {
		var rs []*Request
		for k, cm := range comms {
			r := th.Isend(cm, 1, 5, 64, 100+k)
			vcis[k] = r.vci
			rs = append(rs, r)
		}
		r := th.Isend(plain, 1, 5, 64, "unpinned")
		plainVCI = r.vci
		rs = append(rs, r)
		if err := th.Waitall(rs); err != nil {
			t.Errorf("waitall: %v", err)
		}
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		for k, cm := range comms {
			got[k] = th.Recv(cm, 0, 5)
		}
		th.Recv(plain, 0, 5)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for k := range comms {
		if vcis[k] != k {
			t.Errorf("comm pinned to VCI %d posted on shard %d", k, vcis[k])
		}
		if got[k] != 100+k {
			t.Errorf("comm %d delivered %v, want %d", k, got[k], 100+k)
		}
	}
	if want := vci.Select(plain.ctx, vci.NoHint, n); plainVCI != want {
		t.Errorf("unpinned comm posted on shard %d, want context-hash fallback %d",
			plainVCI, want)
	}
}

// TestTestallFreesUnderOwnShard: on a sharded runtime, Testall frees each
// completed request under its own shard's section. Two receives on
// shards 1 and 3 complete before the call; with nothing left pending the
// call polls only shard 0, so shards 1 and 3 must each be entered to free
// their request — shard 0's hold must not free them.
func TestTestallFreesUnderOwnShard(t *testing.T) {
	const n = 4
	rec := telemetry.New()
	w := testWorld(t, 2, withVCIs(n), func(c *Config) { c.Tel = rec })
	c1 := w.SetupComm().SetVCI(1)
	c3 := w.SetupComm().SetVCI(3)
	var from, to int64
	w.Spawn(0, "sender", func(th *Thread) {
		if err := th.Waitall([]*Request{
			th.Isend(c1, 1, 5, 64, "one"),
			th.Isend(c3, 1, 5, 64, "three"),
		}); err != nil {
			t.Errorf("waitall: %v", err)
		}
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		rs := []*Request{th.Irecv(c1, 0, 5), th.Irecv(c3, 0, 5)}
		for !rs[0].Complete() || !rs[1].Complete() {
			th.progressRound(1, simlock.Low, nil)
			th.progressRound(3, simlock.Low, nil)
			th.S.Sleep(50)
		}
		from = th.S.Now()
		left := th.Testall(append([]*Request(nil), rs...))
		to = th.S.Now()
		if len(left) != 0 {
			t.Errorf("Testall left %d requests pending", len(left))
		}
		for i, r := range rs {
			if !r.Freed() {
				t.Errorf("request %d not freed", i)
			}
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	holds := make([]int, n)
	for _, sp := range rec.Spans() {
		if sp.Kind != telemetry.SpanHold || sp.Start < from || sp.End > to {
			continue
		}
		for v, sh := range w.Procs[1].vcis {
			if int(sp.Lock) == sh.cs.id {
				holds[v]++
			}
		}
	}
	for _, v := range []int{1, 3} {
		if holds[v] != 1 {
			t.Errorf("shard %d held %d times during Testall, want 1", v, holds[v])
		}
	}
}

// TestVCIOrderingWithinShard: MPI non-overtaking order holds per
// (comm, src, tag) — which the sharded runtime maps entirely inside one
// VCI — even with many back-to-back sends in flight, and independently on
// each explicitly placed communicator.
func TestVCIOrderingWithinShard(t *testing.T) {
	const n, msgs = 4, 40
	w := testWorld(t, 2, withVCIs(n))
	a := w.SetupComm().SetVCI(1)
	b := w.SetupComm().SetVCI(3)
	var gotA, gotB []interface{}
	w.Spawn(0, "sender", func(th *Thread) {
		var rs []*Request
		for i := 0; i < msgs; i++ {
			// Interleave the two streams so cross-shard progress cannot
			// substitute for in-shard FIFO order.
			rs = append(rs, th.Isend(a, 1, 7, 64, i))
			rs = append(rs, th.Isend(b, 1, 7, 64, msgs+i))
		}
		if err := th.Waitall(rs); err != nil {
			t.Errorf("waitall: %v", err)
		}
	})
	w.Spawn(1, "recvA", func(th *Thread) {
		for i := 0; i < msgs; i++ {
			gotA = append(gotA, th.Recv(a, 0, 7))
		}
	})
	w.Spawn(1, "recvB", func(th *Thread) {
		for i := 0; i < msgs; i++ {
			gotB = append(gotB, th.Recv(b, 0, 7))
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < msgs; i++ {
		if gotA[i] != i {
			t.Fatalf("stream A overtaken at %d: %v", i, gotA[:i+1])
		}
		if gotB[i] != msgs+i {
			t.Fatalf("stream B overtaken at %d: %v", i, gotB[:i+1])
		}
	}
}

// TestVCIAnyTagNonOvertaking: messages from one source on one pinned
// communicator keep their send order even when every receive is posted
// with AnyTag and the tags differ — the per-(source, communicator) order
// the VCI mapping must keep (Zambre et al.). The first round posts the
// receives before the messages arrive (posted-queue matching); the second
// posts them after the messages have landed, so most match from the
// unexpected queue.
func TestVCIAnyTagNonOvertaking(t *testing.T) {
	const n, msgs = 4, 24
	w := testWorld(t, 2, withVCIs(n))
	c := w.SetupComm().SetVCI(2)
	span := shardSpan{}
	var posted, late []interface{}
	w.Spawn(0, "sender", func(th *Thread) {
		th.Recv(c, 1, 0) // the receiver has posted its first round
		for round := 0; round < 2; round++ {
			rs := make([]*Request, msgs)
			for i := range rs {
				rs[i] = span.add(th.Isend(c, 1, 100+msgs*round+i, 64, i))
			}
			if err := th.Waitall(rs); err != nil {
				t.Errorf("round %d waitall: %v", round, err)
			}
		}
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		rs := make([]*Request, msgs)
		for i := range rs {
			rs[i] = span.add(th.Irecv(c, AnySource, AnyTag))
		}
		th.Send(c, 0, 0, 8, nil)
		if err := th.Waitall(append([]*Request(nil), rs...)); err != nil {
			t.Errorf("waitall: %v", err)
		}
		for _, r := range rs {
			posted = append(posted, r.Data())
		}
		th.S.Sleep(1_000_000) // the second round lands unexpected
		for i := 0; i < msgs; i++ {
			late = append(late, th.Recv(c, 0, AnyTag))
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for round, got := range [][]interface{}{posted, late} {
		if len(got) != msgs {
			t.Fatalf("round %d delivered %d messages, want %d", round, len(got), msgs)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("round %d: AnyTag receive %d got message %v: %v", round, i, v, got)
			}
		}
	}
	if len(span) != 1 || !span[2] {
		t.Errorf("traffic ran on shards %v, want only the pinned shard 2", span)
	}
	if w.Procs[1].UnexpectedHits == 0 {
		t.Error("no receive matched from the unexpected queue")
	}
}

// TestVCICrashBlackholesAllShards: the rank-failure regression for the
// sharded runtime. A crashed rank's traffic spans several VCIs (one
// explicitly placed comm per stream); the fault plane must blackhole the
// rank as a whole — every shard's stream fails with ErrProcFailed after
// heartbeat detection, none hangs — and ULFM revoke/shrink still recovers
// the survivors.
func TestVCICrashBlackholesAllShards(t *testing.T) {
	const n = 4
	w := testWorld(t, 3, withVCIs(n),
		func(c *Config) { c.Fault = fault.Config{Crashes: []fault.CrashSpec{{Rank: 2, AtNs: 100_000}}} })
	w.SetErrhandler(ErrorsReturn)
	c := w.Comm()
	comms := make([]*Comm, n)
	for k := range comms {
		comms[k] = w.SetupComm().SetVCI(k)
	}
	streamErr := make([]error, n)
	streamVCI := make([]int, n)
	for k := range comms {
		k := k
		w.Spawn(0, "stream", func(th *Thread) {
			for i := 0; ; i++ {
				r := th.Isend(comms[k], 2, 7, 64, i)
				streamVCI[k] = r.vci
				if err := th.Wait(r); err != nil {
					streamErr[k] = err
					return
				}
				th.S.Sleep(20_000)
			}
		})
	}
	w.Spawn(2, "victim", func(th *Thread) {
		for {
			th.Recv(comms[0], 0, 7)
		}
	})
	newSize := map[int]int{}
	sums := map[int]int64{}
	for _, rank := range []int{0, 1} {
		rank := rank
		w.Spawn(rank, "recover", func(th *Thread) {
			waitForFailure(th, c)
			th.Revoke(c)
			sh, err := th.Shrink(c)
			if err != nil {
				t.Errorf("rank %d shrink: %v", rank, err)
				return
			}
			newSize[rank] = sh.Size()
			sum, err := th.AllreduceSumErr(sh, int64(rank))
			if err != nil {
				t.Errorf("rank %d allreduce on shrunk comm: %v", rank, err)
				return
			}
			sums[rank] = sum
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for k := range comms {
		errCode(t, streamErr[k], ErrProcFailed)
		if streamVCI[k] != k {
			t.Errorf("stream %d ran on shard %d", k, streamVCI[k])
		}
	}
	rec := w.Recovery()
	if len(rec.Crashed) != 1 || rec.Crashed[0] != 2 {
		t.Fatalf("crashed ranks: %v", rec.Crashed)
	}
	if rec.DetectNs <= 0 || rec.DetectNs > 600_000 {
		t.Fatalf("detection latency out of bounds: %d", rec.DetectNs)
	}
	for _, rank := range []int{0, 1} {
		if newSize[rank] != 2 {
			t.Errorf("rank %d: shrunk size %d, want 2", rank, newSize[rank])
		}
		if sums[rank] != 0+1 {
			t.Errorf("rank %d: allreduce sum %d, want 1", rank, sums[rank])
		}
	}
}

// TestPartitionedWildcardVCIDeterministic: an AnySource Precv on a
// non-zero shard of the sharded runtime adopts whichever matching epoch
// lands first, and that choice must be a pure function of the simulation
// seed — two identical runs bind wildcard receives to senders in exactly
// the same order.
func TestPartitionedWildcardVCIDeterministic(t *testing.T) {
	run := func() []interface{} {
		w := testWorld(t, 3, withVCIs(4))
		c := w.SetupComm().SetVCI(2)
		const parts = 4
		const tag = 6
		for src := 0; src < 2; src++ {
			src := src
			w.Spawn(src, "sender", func(th *Thread) {
				ps := th.PsendInit(c, 2, tag, parts, 64, fmt.Sprintf("from-%d", src))
				th.Pstart(ps)
				if err := th.PreadyRange(ps, 0, parts); err != nil {
					t.Errorf("sender %d: %v", src, err)
				}
				if err := th.Pwait(ps); err != nil {
					t.Errorf("sender %d Pwait: %v", src, err)
				}
			})
		}
		var got []interface{}
		w.Spawn(2, "receiver", func(th *Thread) {
			for i := 0; i < 2; i++ {
				pr := th.PrecvInit(c, AnySource, tag, parts, 64)
				th.Pstart(pr)
				if err := th.Pwait(pr); err != nil {
					t.Errorf("recv %d Pwait: %v", i, err)
				}
				got = append(got, pr.Data())
			}
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if err := w.CheckClean(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	first, second := run(), run()
	if len(first) != 2 || len(second) != 2 {
		t.Fatalf("runs delivered %d/%d epochs, want 2 each", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("wildcard binding diverged between identical runs: %v vs %v", first, second)
		}
	}
}
