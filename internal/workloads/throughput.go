// Package workloads implements the paper's benchmarks over the simulated
// runtime: the modified osu_bw multithreaded point-to-point throughput
// benchmark (§4.1), the osu_latency-derived multithreaded latency benchmark
// (§6.1.1), the N2N all-to-all streaming benchmark (§5.2), and the
// ARMCI-style RMA benchmark with asynchronous progress (§6.1.2).
//
// workloads is part of the deterministic core (docs/ARCHITECTURE.md):
// each Run call builds an isolated engine from its params and seed.
package workloads

import (
	"fmt"

	"mpicontend/internal/fault"
	"mpicontend/internal/machine"
	"mpicontend/internal/mpi"
	"mpicontend/internal/sim"
	"mpicontend/internal/simlock"
	"mpicontend/internal/telemetry"
)

// ThroughputParams configures the multithreaded point-to-point throughput
// benchmark: sender processes on node 0 stream windows of nonblocking sends
// to paired receiver processes on node 1, each thread owning its own window
// of 64 requests completed with Waitall (paper §4.1/§4.4, Fig. 3b bottom).
type ThroughputParams struct {
	Lock simlock.Kind
	// Granularity selects the critical-section granularity (Fig. 1);
	// default Global, the paper's baseline.
	Granularity mpi.Granularity
	// SelectiveWakeup enables the event-driven progress extension (§9).
	SelectiveWakeup bool
	Binding         machine.Binding
	// Cost overrides the timing model (zero value = machine.Default()),
	// used by the calibration and ablation studies.
	Cost machine.CostModel
	// Threads per process.
	Threads int
	// MsgBytes is the message size.
	MsgBytes int64
	// Window is the request window per thread (paper: 64).
	Window int
	// Windows is how many windows each thread completes.
	Windows int
	// ProcsPerNode: 1 for the standard benchmark, 2 for the paper's
	// process-per-socket configuration (Fig. 5c).
	ProcsPerNode int
	Seed         uint64
	// TraceRank, if > 0, traces that rank's critical-section locks
	// (mpi.Proc.TraceLocks) and reports the §4.3/§4.4 numbers of its
	// global section (the paper instruments the communication runtime;
	// the receiver side is where matching happens). The zero value is
	// off: rank 0 is always a sender.
	TraceRank int
	// Fault configures the fault-injection plane (zero = perfect network).
	Fault fault.Config
	// MaxWall bounds real run time in wall-clock ns (0 = unlimited).
	MaxWall int64
	// Tel attaches the telemetry plane (nil = disabled, zero overhead).
	Tel *telemetry.Recorder
}

// throughputWithCost runs the benchmark under an explicit cost model.
func throughputWithCost(p ThroughputParams, cm machine.CostModel) (ThroughputResult, error) {
	p.Cost = cm
	return Throughput(p)
}

// withDefaults fills unset fields.
func (p ThroughputParams) withDefaults() ThroughputParams {
	if p.Threads <= 0 {
		p.Threads = 1
	}
	if p.MsgBytes <= 0 {
		p.MsgBytes = 1
	}
	if p.Window <= 0 {
		p.Window = 64
	}
	if p.Windows <= 0 {
		p.Windows = 10
	}
	if p.ProcsPerNode <= 0 {
		p.ProcsPerNode = 1
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	return p
}

// ThroughputResult aggregates one benchmark run.
type ThroughputResult struct {
	Messages int64
	SimNs    int64
	// RateMsgsPerSec is the aggregate message rate.
	RateMsgsPerSec float64
	// Fairness analysis of the traced rank (zero if tracing disabled).
	BiasCore, BiasSocket float64
	FairSamples          int
	// DanglingAvg is the §4.4 metric sampled at lock acquisitions of the
	// traced rank.
	DanglingAvg float64
	DanglingMax int64
	// UnexpectedHits across receiver ranks.
	UnexpectedHits int64
	// Net holds the resilience counters (all zero on a perfect network).
	Net mpi.NetStats
	// Engine is the simulator's own work account for the run.
	Engine sim.Stats
}

// Throughput runs the multithreaded point-to-point throughput benchmark.
func Throughput(p ThroughputParams) (ThroughputResult, error) {
	p = p.withDefaults()
	var res ThroughputResult

	cfg := mpi.Config{
		Topo:            machine.Nehalem2x4(2),
		Cost:            p.Cost,
		Lock:            p.Lock,
		Granularity:     p.Granularity,
		SelectiveWakeup: p.SelectiveWakeup,
		Binding:         p.Binding,
		ProcsPerNode:    p.ProcsPerNode,
		Seed:            p.Seed,
		Fault:           p.Fault,
		MaxWall:         p.MaxWall,
		Tel:             p.Tel,
	}
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return res, err
	}
	// Trace one process only (the paper instruments one runtime instance).
	var traced *mpi.Proc
	if p.TraceRank > 0 {
		traced = w.Proc(p.TraceRank)
		traced.TraceLocks()
	}
	c := w.Comm()

	// Sender ranks live on node 0, receivers on node 1; pair i is
	// (i, ppn+i).
	ppn := p.ProcsPerNode
	var endAt int64
	for pair := 0; pair < ppn; pair++ {
		sendRank, recvRank := pair, ppn+pair
		for t := 0; t < p.Threads; t++ {
			w.Spawn(sendRank, "send", func(th *mpi.Thread) {
				rs := make([]*mpi.Request, 0, p.Window)
				for win := 0; win < p.Windows; win++ {
					rs = rs[:0]
					for i := 0; i < p.Window; i++ {
						th.S.Sleep(th.P.Cost().AppPerMessageWork)
						rs = append(rs, th.Isend(c, recvRank, 0, p.MsgBytes, nil))
					}
					th.Waitall(rs) //simcheck:allow errdrop benchmark loop under the fatal handler; errors panic inside Waitall
				}
			})
			w.Spawn(recvRank, "recv", func(th *mpi.Thread) {
				rs := make([]*mpi.Request, 0, p.Window)
				for win := 0; win < p.Windows; win++ {
					rs = rs[:0]
					for i := 0; i < p.Window; i++ {
						th.S.Sleep(th.P.Cost().AppPerMessageWork)
						rs = append(rs, th.Irecv(c, sendRank, 0))
					}
					th.Waitall(rs) //simcheck:allow errdrop benchmark loop under the fatal handler; errors panic inside Waitall
					if th.S.Now() > endAt {
						endAt = th.S.Now()
					}
				}
			})
		}
	}
	if err := w.Run(); err != nil {
		return res, fmt.Errorf("throughput(%v,%dB,%dt): %w", p.Lock, p.MsgBytes, p.Threads, err)
	}

	res.Messages = int64(ppn) * int64(p.Threads) * int64(p.Window) * int64(p.Windows)
	res.SimNs = endAt
	if endAt > 0 {
		res.RateMsgsPerSec = float64(res.Messages) / (float64(endAt) / 1e9)
	}
	if traced != nil {
		st := traced.LockStats()
		res.BiasCore = st.BiasCore()
		res.BiasSocket = st.BiasSocket()
		res.FairSamples = st.Samples()
		res.DanglingAvg = st.DanglingAvg()
		res.DanglingMax = st.DanglingMax()
	}
	for _, pr := range w.Procs {
		res.UnexpectedHits += pr.UnexpectedHits
	}
	res.Net = w.NetStats()
	res.Engine = w.Eng.Stats()
	if p.Fault.Enabled() && !p.Fault.CrashesEnabled() {
		if err := w.CheckClean(); err != nil {
			return res, fmt.Errorf("throughput(%v,%dB,%dt): %w", p.Lock, p.MsgBytes, p.Threads, err)
		}
	}
	return res, nil
}
