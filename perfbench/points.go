package main

import (
	"fmt"

	"mpicontend/internal/fault"
	"mpicontend/internal/mpi"
	"mpicontend/internal/mpi/vci"
	"mpicontend/internal/telemetry"
	"mpicontend/internal/workloads"
)

// pointWall bounds one point's host run time; a point over it fails with
// the engine watchdog's error instead of hanging the benchmark.
const pointWall = 30e9

// point is one simulation the point workloads run: exactly one of tp,
// n2n or rec is set. wantMsgs is the message count its configuration
// implies (0 for recovery points, which report no Messages field).
type point struct {
	name     string
	tp       *workloads.ThroughputParams
	n2n      *workloads.N2NParams
	rec      *workloads.RecoveryParams
	wantMsgs int64
}

// outcome is a point's simulated result: everything the simulation
// reports, compared field by field between passes and between the
// untraced and the traced run.
type outcome struct {
	Msgs      int64
	SimNs     int64
	Net       mpi.NetStats
	Part      mpi.PartStats
	Recovery  mpi.RecoveryStats
	Survivors int
	Checksum  int64
	RecoverNs int64
}

// key renders an outcome canonically, for equality and digests.
func (o outcome) key() string { return fmt.Sprintf("%+v", o) }

// mix derives the i-th point seed from the workload seed (splitmix64).
func mix(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // a zero seed would select the workloads' default
	}
	return z
}

// seedsPerKind is how many seeds each lock kind (and variant) gets in one
// pass of a point workload: 16, 16 and 21 points per pass.
var seedsPerKind = map[string]int{"p2p-contended": 4, "n2n-sharded": 2, "chaos-recovery": 3}

// buildPoints generates one pass of a point workload from the seed.
func buildPoints(workload string, seed uint64) ([]point, error) {
	var ps []point
	i := 0
	next := func() uint64 { i++; return mix(seed, i) }
	switch workload {
	case "p2p-contended":
		// Fig. 8a shape: 2 ranks x 8 threads, 64 B eager, 1 VCI, polling.
		for j := 0; j < seedsPerKind[workload]; j++ {
			for _, lk := range lockKinds {
				p := workloads.ThroughputParams{Lock: lk.kind, Threads: 8, MsgBytes: 64,
					Window: 64, Windows: 4, TraceRank: -1, Seed: next(), MaxWall: pointWall}
				ps = append(ps, point{name: "p2p/" + lk.name, tp: &p,
					wantMsgs: int64(p.Threads * p.Window * p.Windows)})
			}
		}
	case "n2n-sharded":
		// 4 procs x 8 threads, 2 KiB, per-thread comms on 16 VCIs,
		// continuation progress; eager and partitioned alternate. A
		// partitioned window costs the host about an eighth of an eager
		// one, so partitioned points run 8 windows to eager's 1 and both
		// variants weigh alike in the point percentiles.
		for j := 0; j < seedsPerKind[workload]; j++ {
			for _, part := range []bool{false, true} {
				for _, lk := range lockKinds {
					p := workloads.N2NParams{Lock: lk.kind, Procs: 4, Threads: 8, MsgBytes: 2048,
						Window: 33, Windows: 1, VCIs: 16, VCIPolicy: vci.Explicit,
						Progress: mpi.ProgressContinuation, Partitioned: part, Seed: next(),
						MaxWall: pointWall}
					name := "n2n/eager/" + lk.name
					if part {
						p.Windows = 8
						name = "n2n/partitioned/" + lk.name
					}
					ps = append(ps, point{name: name, n2n: &p,
						wantMsgs: int64(p.Procs * p.Threads * p.Window * p.Windows)})
				}
			}
		}
	case "chaos-recovery":
		for j := 0; j < seedsPerKind[workload]; j++ {
			// 1% drops on the point-to-point path: retransmit timers,
			// NACKs, duplicate suppression, timer cancel/compaction.
			for _, lk := range lockKinds {
				tp := workloads.ThroughputParams{Lock: lk.kind, Threads: 8, MsgBytes: 512,
					Window: 64, Windows: 2, TraceRank: -1, Seed: next(), MaxWall: pointWall,
					Fault: fault.Config{DropProb: 0.01, WatchdogNs: 50_000_000}}
				ps = append(ps, point{name: "chaos/drop/" + lk.name, tp: &tp,
					wantMsgs: int64(tp.Threads * tp.Window * tp.Windows)})
			}
			// A ring rank crashes mid-run: heartbeats, revoke flood,
			// shrink/agree and checkpoint adoption. Fair locks only: under
			// the mutex the error path runs ~50x longer in simulated time,
			// by a seed-dependent amount, and would dominate the pass.
			for _, lk := range lockKinds[1:] {
				s := next()
				rec := workloads.RecoveryParams{Lock: lk.kind, Procs: 4, Iters: 64,
					Kernel: workloads.KernelRing, Strategy: workloads.RecoverCheckpoint, CkptInterval: 8,
					Seed: s, MaxWall: pointWall,
					Fault: fault.Config{Crashes: []fault.CrashSpec{{
						Rank: 1 + int(s%3), AtNs: 30_000 + int64(s>>8%60_000)}}}}
				ps = append(ps, point{name: "chaos/recovery/" + lk.name, rec: &rec})
			}
		}
	default:
		return nil, fmt.Errorf("not a point workload: %q", workload)
	}
	return ps, nil
}

// run simulates the point, with telemetry attached when tel is non-nil.
func (p point) run(tel *telemetry.Recorder) (outcome, error) {
	switch {
	case p.tp != nil:
		q := *p.tp
		q.Tel = tel
		r, err := workloads.Throughput(q)
		return outcome{Msgs: r.Messages, SimNs: r.SimNs, Net: r.Net}, err
	case p.n2n != nil:
		q := *p.n2n
		q.Tel = tel
		r, err := workloads.N2N(q)
		return outcome{Msgs: r.Messages, SimNs: r.SimNs, Net: r.Net, Part: r.Part}, err
	default:
		q := *p.rec
		q.Tel = tel
		r, err := workloads.Recovery(q)
		return outcome{SimNs: r.SimNs, Net: r.Net, Recovery: r.Recovery, Survivors: r.Survivors,
			Checksum: r.Checksum, RecoverNs: r.RecoverNs}, err
	}
}

// check is the per-point correctness gate.
func (p point) check(o outcome) error {
	if o.SimNs <= 0 {
		return fmt.Errorf("%s: simulated time %d", p.name, o.SimNs)
	}
	if o.Net.GiveUps != 0 || o.Net.WatchdogStalls != 0 {
		return fmt.Errorf("%s: transport failures: %v", p.name, o.Net)
	}
	if p.rec != nil {
		// Requests towards the crashed rank fail by design; the
		// survivors' agreed state is the gate.
		return p.checkRecovery(o)
	}
	if o.Net.RequestFailures != 0 {
		return fmt.Errorf("%s: %d requests failed", p.name, o.Net.RequestFailures)
	}
	if o.Msgs != p.wantMsgs {
		return fmt.Errorf("%s: %d messages, configuration implies %d", p.name, o.Msgs, p.wantMsgs)
	}
	if p.n2n != nil && p.n2n.Partitioned {
		// Every message is one partition, delivered in one aggregate per
		// (thread, peer, window).
		aggs := int64(p.n2n.Procs * p.n2n.Threads * (p.n2n.Procs - 1) * p.n2n.Windows)
		if o.Part.Partitions != p.wantMsgs || o.Part.Aggregates != aggs {
			return fmt.Errorf("%s: %d partitions in %d aggregates, want %d in %d",
				p.name, o.Part.Partitions, o.Part.Aggregates, p.wantMsgs, aggs)
		}
	}
	if p.tp != nil && p.tp.Fault.DropProb > 0 && o.Net.Fault.Dropped > 0 && o.Net.Retransmits == 0 {
		return fmt.Errorf("%s: %d drops but no retransmit", p.name, o.Net.Fault.Dropped)
	}
	return nil
}

// ringSum is rank r's state after k iterations of the recovery kernel:
// each iteration adds 7*iter + r + 1.
func ringSum(r, k int) int64 {
	return int64(7*k*(k-1)/2 + k*(r+1))
}

// checkRecovery verifies the agreed checksum of a checkpoint-strategy
// run. Survivors roll back to the agreed checkpoint and finish every
// iteration, and the dead rank contributes its state at one of its
// checkpoints, so the only values a correct agreement can yield are the
// survivors' full sums plus the dead rank's sum at some checkpoint
// boundary. A survivor that diverged changes the reduction and misses
// every one of them.
func (p point) checkRecovery(o outcome) error {
	q := p.rec
	crashed := o.Recovery.Crashed
	if len(crashed) != 1 || o.Survivors != q.Procs-1 {
		return fmt.Errorf("%s: crashed %v, %d survivors of %d", p.name, crashed, o.Survivors, q.Procs)
	}
	if o.Recovery.DetectNs <= 0 || o.Recovery.Shrinks == 0 {
		return fmt.Errorf("%s: crash not detected or not repaired: %+v", p.name, o.Recovery)
	}
	var survivors int64
	for r := 0; r < q.Procs; r++ {
		if r != crashed[0] {
			survivors += ringSum(r, q.Iters)
		}
	}
	for c := 0; c <= q.Iters; c += q.CkptInterval {
		if o.Checksum == survivors+ringSum(crashed[0], c) {
			return nil
		}
	}
	return fmt.Errorf("%s: checksum %d matches no consistent recovery line", p.name, o.Checksum)
}
