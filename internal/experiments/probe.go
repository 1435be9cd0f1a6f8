package experiments

import (
	"fmt"
	"strings"

	"mpicontend/internal/fault"
	"mpicontend/internal/mpi"
	"mpicontend/internal/mpi/vci"
	"mpicontend/internal/simlock"
	"mpicontend/internal/telemetry"
	"mpicontend/internal/workloads"
)

// Probe runs the traced "representative point" of an experiment: one
// workload configuration characteristic of the figure, small enough that
// the resulting span stream stays tractable, with the telemetry recorder
// attached. It returns a one-line description of the traced run.
//
// Experiments sweep many configurations; tracing the whole sweep would
// interleave unrelated runs on one timeline. The probe instead picks the
// contended heart of each figure (e.g. fig8a's 8-thread mutex point) so
// the trace shows exactly the dynamics the figure argues about.
func Probe(id string, o Options, rec *telemetry.Recorder) (string, error) {
	if _, err := Get(id); err != nil {
		return "", err
	}
	windows := o.windows()
	switch {
	case id == "fig8b" || id == "fig2a":
		// Latency-shaped figures: multithreaded ping-pong under the mutex.
		iters := 200
		if o.Quick {
			iters = 50
		}
		p := workloads.LatencyParams{
			Lock: simlock.KindMutex, Threads: 8, MsgBytes: 1024,
			Iters: iters, Seed: o.seed(), Tel: rec,
		}
		_, err := workloads.Latency(p)
		return fmt.Sprintf("latency lock=Mutex threads=%d bytes=%d iters=%d",
			p.Threads, p.MsgBytes, p.Iters), err

	case id == "fig6b" || id == "fig5b":
		// N2N streaming under the priority lock (the §5.2 shape).
		p := workloads.N2NParams{
			Lock: simlock.KindPriority, Procs: 4, Threads: 4,
			MsgBytes: 512, Windows: windows, Seed: o.seed(),
			Progress: o.Progress, Tel: rec,
		}
		_, err := workloads.N2N(p)
		return fmt.Sprintf("n2n lock=Priority procs=%d threads=%d bytes=%d",
			p.Procs, p.Threads, p.MsgBytes), err

	case strings.HasPrefix(id, "fig9"):
		// RMA with async progress threads (§6.1.2).
		op := workloads.OpPut
		switch id {
		case "fig9b":
			op = workloads.OpGet
		case "fig9c":
			op = workloads.OpAcc
		}
		ops := 64
		if o.Quick {
			ops = 16
		}
		p := workloads.RMAParams{
			Lock: simlock.KindMutex, Op: op, Procs: 4,
			ElemBytes: 64, Ops: ops, Window: 8, Seed: o.seed(), Tel: rec,
		}
		_, err := workloads.RMA(p)
		return fmt.Sprintf("rma lock=Mutex op=%v procs=%d ops=%d", op, p.Procs, p.Ops), err

	case id == "recovery":
		// A mid-run rank crash under the mutex: the trace shows detection,
		// the revoke flood and the shrink round on the error path.
		iters := 48
		if o.Quick {
			iters = 24
		}
		p := workloads.RecoveryParams{
			Lock: simlock.KindMutex, Procs: 4, ProcsPerNode: 2, Iters: iters,
			Strategy: workloads.RecoverShrink, Kernel: workloads.KernelRing,
			Fault: fault.Config{Crashes: []fault.CrashSpec{{Rank: 2, AtNs: 60_000}}},
			Seed:  o.seed(), MaxWall: recoveryWall, Tel: rec,
		}
		_, err := workloads.Recovery(p)
		return fmt.Sprintf("recovery lock=Mutex strategy=shrink procs=%d crash@60us", p.Procs), err

	case id == "vci":
		// The sharded runtime's contended heart: N2N with one explicitly
		// placed comm per thread over 16 VCIs, where the shard sections
		// are idle and the trace shows the shared-NIC injection lock as
		// the remaining hot spot.
		p := workloads.N2NParams{
			Lock: simlock.KindMutex, Procs: 4, Threads: 8, MsgBytes: 2048,
			Windows: windows, Seed: o.seed(), PerThreadTags: true,
			VCIs: 16, VCIPolicy: vci.Explicit, Progress: o.Progress, Tel: rec,
		}
		_, err := workloads.N2N(p)
		return fmt.Sprintf("n2n lock=Mutex vcis=16 policy=%v threads=%d bytes=%d",
			vci.Explicit, p.Threads, p.MsgBytes), err

	case id == "progress":
		// The remedy's contended heart: the same N2N point as the vci
		// probe but with continuation-mode completion on the unsharded
		// runtime under the mutex — the daemons' useful-only low-class
		// acquisitions replacing the polling storm the priority lock was
		// invented for. -progress overrides the mode to compare shapes.
		mode := mpi.ProgressContinuation
		if o.Progress != mpi.ProgressPolling {
			mode = o.Progress
		}
		p := workloads.N2NParams{
			Lock: simlock.KindMutex, Procs: 4, Threads: 8, MsgBytes: 2048,
			Windows: windows, Seed: o.seed(), PerThreadTags: true,
			VCIs: 1, VCIPolicy: vci.Explicit, Progress: mode, Tel: rec,
		}
		_, err := workloads.N2N(p)
		return fmt.Sprintf("n2n lock=Mutex progress=%v threads=%d bytes=%d",
			mode, p.Threads, p.MsgBytes), err

	case id == "partitioned":
		// The lock-free fast path's contended heart: partitioned N2N on
		// the unsharded mutex runtime, where the trace shows one critical
		// section entry per aggregated transfer (the epoch-completing
		// Pready) instead of the eager path's per-message storm.
		p := workloads.N2NParams{
			Lock: simlock.KindMutex, Procs: 4, Threads: 8, MsgBytes: 2048,
			Windows: windows, Seed: o.seed(), PerThreadTags: true,
			Partitioned: true, Progress: o.Progress, Tel: rec,
		}
		r, err := workloads.N2N(p)
		return fmt.Sprintf("n2n lock=Mutex partitioned threads=%d bytes=%d aggregates=%d",
			p.Threads, p.MsgBytes, r.Part.Aggregates), err

	case id == "chaos":
		// The resilience soak's shape: throughput over a lossy network.
		p := workloads.ThroughputParams{
			Lock: simlock.KindTicket, Threads: 4, MsgBytes: 64,
			Window: 32, Windows: windows, Seed: o.seed(),
			Fault: fault.Config{DropProb: 0.01, WatchdogNs: 10_000_000},
			Tel:   rec,
		}
		_, err := workloads.Throughput(p)
		return fmt.Sprintf("throughput lock=Ticket threads=%d bytes=%d drop=0.01",
			p.Threads, p.MsgBytes), err

	default:
		// Throughput-shaped figures (fig8a, fig2b, fig3*, fig5a...):
		// the paper's 8-thread mutex point, where contention peaks.
		p := workloads.ThroughputParams{
			Lock: simlock.KindMutex, Threads: 8, MsgBytes: 64,
			Window: 32, Windows: windows, Seed: o.seed(),
			Tel: rec,
		}
		_, err := workloads.Throughput(p)
		return fmt.Sprintf("throughput lock=Mutex threads=%d bytes=%d windows=%d",
			p.Threads, p.MsgBytes, p.Windows), err
	}
}
