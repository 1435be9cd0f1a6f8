package mpisim_test

import (
	"fmt"

	"mpicontend/mpisim"
)

// ExampleThroughput reproduces the paper's headline comparison: with eight
// threads hammering the runtime, FCFS arbitration outperforms the biased
// pthread mutex.
func ExampleThroughput() {
	run := func(lock mpisim.Lock) float64 {
		r, err := mpisim.Throughput(mpisim.ThroughputConfig{
			Lock: lock, Threads: 8, MsgBytes: 64, Windows: 4,
		})
		if err != nil {
			panic(err)
		}
		return r.RateMsgsPerSec
	}
	mutex, ticket := run(mpisim.Mutex), run(mpisim.Ticket)
	fmt.Println("ticket beats mutex:", ticket > mutex)
	// Output: ticket beats mutex: true
}

// ExampleThroughput_trace runs the §4.3 fairness analysis: the mutex's
// core-level bias factor is far above the fair value of 1.
func ExampleThroughput_trace() {
	r, err := mpisim.Throughput(mpisim.ThroughputConfig{
		Lock: mpisim.Mutex, Threads: 8, MsgBytes: 64, Windows: 4, TraceRank: 1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("mutex core bias > 1.5:", r.BiasCore > 1.5)
	// Output: mutex core bias > 1.5: true
}

// ExampleRMA shows the paper's most dramatic case: an asynchronous
// progress thread monopolizes a mutex-guarded runtime.
func ExampleRMA() {
	run := func(lock mpisim.Lock) float64 {
		r, err := mpisim.RMA(mpisim.RMAConfig{
			Lock: lock, Op: mpisim.Put, ElemBytes: 64, Ops: 6,
		})
		if err != nil {
			panic(err)
		}
		return r.RateElemPerSec
	}
	mutex, ticket := run(mpisim.Mutex), run(mpisim.Ticket)
	fmt.Println("fair arbitration at least 3x faster:", ticket > 3*mutex)
	// Output: fair arbitration at least 3x faster: true
}

// ExampleBFS runs the Graph500 kernel on a simulated four-node cluster.
func ExampleBFS() {
	r, err := mpisim.BFS(mpisim.BFSConfig{
		Lock: mpisim.Ticket, Procs: 4, Threads: 4, Scale: 10,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("traversed a connected component:", r.VisitedVertices > 100)
	// Output: traversed a connected component: true
}

// ExampleStencil solves a small heat-equation problem and reports where
// the time went.
func ExampleStencil() {
	r, err := mpisim.Stencil(mpisim.StencilConfig{
		Lock: mpisim.Ticket, Procs: 2, Threads: 2,
		NX: 16, NY: 16, NZ: 16, Iters: 4,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("breakdown covers everything:",
		r.MPIPct+r.ComputePct+r.SyncPct > 99.9)
	// Output: breakdown covers everything: true
}
