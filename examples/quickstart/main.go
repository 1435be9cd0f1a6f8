// Quickstart: measure how critical-section arbitration changes
// multithreaded MPI throughput, reproducing the headline comparison of
// "MPI+Threads: Runtime Contention and Remedies" (PPoPP'15) in a few
// seconds on a laptop.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"mpicontend/mpisim"
)

func main() {
	fmt.Println("Multithreaded point-to-point throughput, 8 threads, 64B messages")
	fmt.Println("(two simulated dual-socket Nehalem nodes over QDR InfiniBand)")
	fmt.Println()

	single, err := mpisim.Throughput(mpisim.ThroughputConfig{
		Lock: mpisim.Single, Threads: 1, MsgBytes: 64,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s %10.0f msgs/s   (MPI_THREAD_SINGLE baseline)\n",
		"single-threaded", single.RateMsgsPerSec)

	for _, lock := range []mpisim.Lock{mpisim.Mutex, mpisim.Ticket, mpisim.Priority} {
		r, err := mpisim.Throughput(mpisim.ThroughputConfig{
			Lock: lock, Threads: 8, MsgBytes: 64, TraceRank: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %10.0f msgs/s   bias core=%.1f sock=%.1f dangling=%.0f\n",
			"8 threads / "+lock.String(), r.RateMsgsPerSec,
			r.BiasCore, r.BiasSocket, r.DanglingAvg)
	}

	fmt.Println()
	fmt.Println("The pthread-mutex runtime loses throughput to NUMA-biased lock")
	fmt.Println("monopolization (bias factors >> 1, dangling requests pile up);")
	fmt.Println("the paper's FCFS ticket lock and two-level priority lock recover it.")
}
