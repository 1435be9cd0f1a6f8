package mpi

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"mpicontend/internal/machine"
	"mpicontend/internal/simlock"
)

// waitFamilyCase is one runtime configuration of the wait-family table.
type waitFamilyCase struct {
	name string
	opts []func(*Config)
	// comms builds the data communicators (message i travels on comm
	// i%len); called during world setup.
	comms func(w *World) []*Comm
	// wild posts receives and probes with AnySource and AnyTag instead of
	// the sender's rank and the message's tag.
	wild bool
}

// match returns the (source, tag) a receive or probe for a message sent
// by rank 0 with tag is posted with.
func (tc waitFamilyCase) match(tag int) (int, int) {
	if tc.wild {
		return AnySource, AnyTag
	}
	return 0, tag
}

func withGranularity(g Granularity) func(*Config) {
	return func(c *Config) { c.Granularity = g }
}

func waitFamilyCases() []waitFamilyCase {
	var cases []waitFamilyCase
	for _, g := range allGrans {
		cases = append(cases, waitFamilyCase{
			name:  fmt.Sprintf("vcis1/%v", g),
			opts:  []func(*Config){withGranularity(g)},
			comms: func(w *World) []*Comm { return []*Comm{w.Comm(), w.SetupComm()} },
		})
	}
	pinned := func(w *World) []*Comm {
		return []*Comm{w.SetupComm().SetVCI(1), w.SetupComm().SetVCI(3), w.SetupComm().SetVCI(0)}
	}
	return append(cases,
		waitFamilyCase{
			name:  "vcis4/PerComm",
			opts:  []func(*Config){withVCIs(4)},
			comms: func(w *World) []*Comm { return []*Comm{w.Comm(), w.SetupComm(), w.SetupComm()} },
		},
		waitFamilyCase{
			name:  "vcis4/Explicit",
			opts:  []func(*Config){withVCIs(4)},
			comms: pinned,
		},
		waitFamilyCase{
			name:  "vcis4/Explicit/AnyTag",
			opts:  []func(*Config){withVCIs(4)},
			comms: pinned,
			wild:  true,
		},
	)
}

// waitFamilyPhases names the receive-side calls exercised, one phase each.
var waitFamilyPhases = []string{"Wait", "Waitall", "Test", "Testall", "Waitany", "Waitsome", "Probe"}

// TestWaitFamilyAcrossConfigs drives every wait/test/probe/cancel call of
// the receive side under one-shard runtimes of each granularity and under
// sharded runtimes with unpinned and pinned comms, the latter also with
// AnySource/AnyTag receives. Each phase: the receiver signals readiness on a control comm,
// the sender ships three messages spread over the data comms, and the
// receiver completes them with the call under test. Payloads must arrive
// intact, every request must be freed exactly once, and the world must end
// with no outstanding or dangling requests.
func TestWaitFamilyAcrossConfigs(t *testing.T) {
	const perPhase = 3
	for _, tc := range waitFamilyCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			w := testWorld(t, 2, tc.opts...)
			ctrl := w.SetupComm()
			cancelled := false
			span := shardSpan{}
			comms := tc.comms(w)
			tagOf := func(phase, i int) int { return 100 + 10*phase + i }
			commOf := func(i int) *Comm { return comms[i%len(comms)] }
			payloadOf := func(tag int) string { return fmt.Sprintf("msg-%d", tag) }

			w.Spawn(0, "sender", func(th *Thread) {
				for ph := range waitFamilyPhases {
					th.Recv(ctrl, 1, ph)
					var rs []*Request
					for i := 0; i < perPhase; i++ {
						tag := tagOf(ph, i)
						rs = append(rs, th.Isend(commOf(i), 1, tag, 64, payloadOf(tag)))
					}
					if err := th.Waitall(rs); err != nil {
						t.Errorf("sender waitall: %v", err)
					}
				}
			})

			w.Spawn(1, "receiver", func(th *Thread) {
				freedBy := map[*Request]int{}
				// check verifies a completed receive of phase ph, message i
				// (or, for a wild case, some message of the phase) and
				// counts the call that freed it.
				got := map[string]int{}
				check := func(ph, i int, r *Request) {
					if !r.Freed() || !r.Complete() {
						t.Errorf("phase %s: request %d not completed and freed", waitFamilyPhases[ph], i)
					}
					freedBy[r]++
					s, _ := r.Data().(string)
					got[s]++
					if !tc.wild {
						if want := payloadOf(tagOf(ph, i)); s != want {
							t.Errorf("phase %s: payload %q, want %q", waitFamilyPhases[ph], s, want)
						}
					}
				}
				post := func(ph int) []*Request {
					rs := make([]*Request, perPhase)
					for i := range rs {
						src, tag := tc.match(tagOf(ph, i))
						rs[i] = span.add(th.Irecv(commOf(i), src, tag))
					}
					return rs
				}
				for ph, name := range waitFamilyPhases {
					th.Send(ctrl, 0, ph, 8, nil)
					switch name {
					case "Wait":
						rs := post(ph)
						for i, r := range rs {
							if err := th.Wait(r); err != nil {
								t.Errorf("wait: %v", err)
							}
							check(ph, i, r)
						}
					case "Waitall":
						rs := post(ph)
						all := append([]*Request(nil), rs...)
						if err := th.Waitall(rs); err != nil {
							t.Errorf("waitall: %v", err)
						}
						for i, r := range all {
							check(ph, i, r)
						}
					case "Test":
						rs := post(ph)
						for i, r := range rs {
							for !th.Test(r) {
								th.S.Sleep(50)
							}
							check(ph, i, r)
						}
					case "Testall":
						rs := post(ph)
						all := append([]*Request(nil), rs...)
						pending := rs
						for len(pending) > 0 {
							pending = th.Testall(pending)
							th.S.Sleep(50)
						}
						for i, r := range all {
							check(ph, i, r)
						}
					case "Waitany":
						rs := post(ph)
						all := append([]*Request(nil), rs...)
						for n := 0; n < perPhase; n++ {
							idx := th.Waitany(rs)
							if idx < 0 || rs[idx] == nil {
								t.Errorf("Waitany returned %d", idx)
								return
							}
							rs[idx] = nil // MPI_REQUEST_NULL
						}
						for i, r := range all {
							check(ph, i, r)
						}
					case "Waitsome":
						rs := post(ph)
						all := append([]*Request(nil), rs...)
						for n := 0; n < perPhase; {
							idxs := th.Waitsome(rs)
							if len(idxs) == 0 {
								t.Error("Waitsome returned no index with requests pending")
								return
							}
							for _, i := range idxs {
								if rs[i] == nil {
									t.Errorf("Waitsome returned inactive index %d", i)
									return
								}
								rs[i] = nil
								n++
							}
						}
						for i, r := range all {
							check(ph, i, r)
						}
					case "Probe":
						// Blocking probe with the case's source and tag, then
						// a non-wildcard Iprobe loop for a specific message.
						src, tag := tc.match(tagOf(ph, 0))
						st := th.Probe(commOf(0), src, tag)
						if st.Source != 0 || st.Bytes != 64 {
							t.Errorf("probe status %+v", st)
						}
						r0 := th.Irecv(commOf(0), 0, st.Tag)
						if err := th.Wait(r0); err != nil {
							t.Errorf("wait after probe: %v", err)
						}
						freedBy[r0]++
						got[r0.Data().(string)]++
						if want := payloadOf(st.Tag); r0.Data() != want {
							t.Errorf("probed tag %d delivered %v", st.Tag, r0.Data())
						}
						for i := 0; i < perPhase; i++ {
							tag := tagOf(ph, i)
							if payloadOf(tag) == r0.Data() {
								continue
							}
							for {
								st, ok := th.Iprobe(commOf(i), 0, tag)
								if ok {
									if st.Tag != tag || st.Source != 0 {
										t.Errorf("iprobe status %+v for tag %d", st, tag)
									}
									break
								}
								th.S.Sleep(50)
							}
							r := th.Irecv(commOf(i), 0, tag)
							if err := th.Wait(r); err != nil {
								t.Errorf("wait after iprobe: %v", err)
							}
							check(ph, i, r)
						}
					}
				}
				// CancelRecv of a receive nothing will ever match.
				src, tag := tc.match(9999)
				r := th.Irecv(commOf(0), src, tag)
				th.CancelRecv(r)
				if !r.Freed() || r.Complete() {
					t.Errorf("cancelled receive: freed=%v complete=%v", r.Freed(), r.Complete())
				}
				// Test on the cancelled receive: this call freed nothing,
				// so it reports false and runs no error handler.
				if th.Test(r) {
					t.Error("Test on a cancelled receive reported completion")
				}
				cancelled = true

				for r, n := range freedBy {
					if n != 1 {
						t.Errorf("request %p freed %d times", r, n)
					}
				}
				var want, have []string
				for ph := range waitFamilyPhases {
					for i := 0; i < perPhase; i++ {
						want = append(want, payloadOf(tagOf(ph, i)))
					}
				}
				for s, n := range got {
					for ; n > 0; n-- {
						have = append(have, s)
					}
				}
				sort.Strings(want)
				sort.Strings(have)
				if fmt.Sprint(want) != fmt.Sprint(have) {
					t.Errorf("delivered payloads %v, want %v", have, want)
				}
			})
			if err := w.Run(); err != nil {
				t.Fatal(err)
			}
			if !cancelled {
				t.Fatal("receiver did not reach the end of its program")
			}
			span.require(t, min(w.Cfg.VCIs, 2))
			for _, p := range w.Procs {
				if p.Outstanding() != 0 {
					t.Errorf("rank %d: %d requests outstanding", p.Rank, p.Outstanding())
				}
			}
			if w.DanglingNow() != 0 {
				t.Errorf("dangling requests: %d", w.DanglingNow())
			}
		})
	}
}

// TestConfigLegality walks Granularity × VCIs {1,4} × Progress ×
// ThreadLevel: every combination either is rejected by NewWorld with
// ErrIllegalConfig or runs a 2-rank ping-pong to completion. The rejected
// set is exactly the two preconditions the shard-indexed critical-section
// primitives rely on: more than one VCI, or a non-polling progress mode,
// needs GranGlobal with MPI_THREAD_MULTIPLE. The topology, placement
// and VCI-setting rejections carry the same sentinel.
func TestConfigLegality(t *testing.T) {
	for name, cfg := range map[string]Config{
		"no-topology":       {},
		"ppn-exceeds-cores": {Topo: machine.Nehalem2x4(2), ProcsPerNode: 9},
		"negative-vcis":     {Topo: machine.Nehalem2x4(2), VCIs: -1},
		"too-many-vcis":     {Topo: machine.Nehalem2x4(2), VCIs: 2048},
	} {
		if _, err := NewWorld(cfg); !errors.Is(err, ErrIllegalConfig) {
			t.Errorf("%s: NewWorld = %v, want ErrIllegalConfig", name, err)
		}
	}
	levels := []ThreadLevel{ThreadMultiple, ThreadSingle, ThreadFunneled, ThreadSerialized}
	modes := []ProgressMode{ProgressPolling, ProgressStrong, ProgressContinuation}
	for _, g := range allGrans {
		for _, n := range []int{1, 4} {
			for _, m := range modes {
				for _, lvl := range levels {
					name := fmt.Sprintf("%v/vcis%d/%v/%v", g, n, m, lvl)
					cfg := Config{
						Topo:        machine.Nehalem2x4(2),
						Lock:        simlock.KindTicket,
						Seed:        7,
						Granularity: g,
						VCIs:        n,
						Progress:    m,
						ThreadLevel: lvl,
					}
					needsShardGlobal := n > 1 || m != ProgressPolling
					wantErr := needsShardGlobal && (g != GranGlobal || lvl != ThreadMultiple)
					w, err := NewWorld(cfg)
					if wantErr {
						if !errors.Is(err, ErrIllegalConfig) {
							t.Errorf("%s: NewWorld = %v, want ErrIllegalConfig", name, err)
						}
						continue
					}
					if err != nil {
						t.Errorf("%s: NewWorld: %v", name, err)
						continue
					}
					w.Eng.MaxEvents = 5_000_000 // a hang fails fast
					c := w.Comm()
					var got interface{}
					w.Spawn(0, "ping", func(th *Thread) {
						th.Send(c, 1, 1, 64, "ping")
						got = th.Recv(c, 1, 2)
					})
					w.Spawn(1, "pong", func(th *Thread) {
						th.Send(c, 0, 2, 64, th.Recv(c, 0, 1))
					})
					if err := w.Run(); err != nil {
						t.Errorf("%s: run: %v", name, err)
						continue
					}
					if got != "ping" {
						t.Errorf("%s: ping-pong delivered %v", name, got)
					}
					if w.DanglingNow() != 0 {
						t.Errorf("%s: %d dangling requests", name, w.DanglingNow())
					}
				}
			}
		}
	}
}

// TestWaitanyWaitsomeInactive: freed and nil requests are inactive, like
// MPI_REQUEST_NULL. Waitany skips them and returns -1 (MPI_UNDEFINED)
// once no request is active; Waitsome returns nil instead of spinning.
// Runs on the one-shard runtime and on a sharded one whose two pinned
// comms put the requests on different shards.
func TestWaitanyWaitsomeInactive(t *testing.T) {
	for _, n := range []int{1, 4} {
		n := n
		t.Run(fmt.Sprintf("vcis%d", n), func(t *testing.T) {
			w := testWorld(t, 2, withVCIs(n))
			comms := pinnedComms(w, 2)
			span := shardSpan{}
			done := false
			w.Spawn(0, "s", func(th *Thread) {
				for tag := 0; tag < 4; tag++ {
					th.Send(comms[tag%2], 1, tag, 8, tag)
				}
			})
			w.Spawn(1, "r", func(th *Thread) {
				recv := func(tag int) *Request { return span.add(th.Irecv(comms[tag%2], 0, tag)) }
				rs := []*Request{recv(0), nil, recv(1)}
				seen := map[int]bool{}
				for k := 0; k < 2; k++ {
					// The slice is passed unchanged: the request freed by
					// the first call must not be picked (or freed) again.
					i := th.Waitany(rs)
					if i != 0 && i != 2 || seen[i] {
						t.Errorf("Waitany #%d returned %d (seen %v)", k, i, seen)
						return
					}
					seen[i] = true
				}
				if i := th.Waitany(rs); i != -1 {
					t.Errorf("Waitany over inactive requests returned %d, want -1", i)
				}
				if i := th.Waitany(nil); i != -1 {
					t.Errorf("Waitany over no requests returned %d, want -1", i)
				}

				rs = []*Request{recv(2), nil, recv(3)}
				got := 0
				for got < 2 {
					idxs := th.Waitsome(rs)
					for _, i := range idxs {
						if i == 1 || rs[i].Data() != 2+i/2 {
							t.Errorf("Waitsome returned index %d with payload %v", i, rs[i].Data())
						}
					}
					got += len(idxs)
				}
				if idxs := th.Waitsome(rs); idxs != nil {
					t.Errorf("Waitsome over inactive requests returned %v, want nil", idxs)
				}
				done = true
			})
			if err := w.Run(); err != nil {
				t.Fatal(err)
			}
			if !done {
				t.Fatal("receiver did not finish")
			}
			span.require(t, min(n, 2))
			if w.DanglingNow() != 0 || w.Procs[1].Outstanding() != 0 {
				t.Fatalf("dangling %d, outstanding %d", w.DanglingNow(), w.Procs[1].Outstanding())
			}
		})
	}
}
