package experiments

import (
	"fmt"

	"mpicontend/internal/mpi/vci"
	"mpicontend/internal/report"
	"mpicontend/internal/simlock"
	"mpicontend/internal/telemetry"
	"mpicontend/internal/workloads"
)

func init() {
	register("vci", "Per-VCI runtime: sharded critical sections vs. shared-NIC arbitration", vciExp)
}

// vciLocks are the arbitration methods compared across the shard sweep:
// the paper's baseline and remedies plus the CLH queue lock, so the
// crossover covers both backoff- and queue-style arbitration.
var vciLocks = []simlock.Kind{
	simlock.KindMutex, simlock.KindTicket, simlock.KindCLH, simlock.KindPriority,
}

// vciCounts is the VCIs-per-proc axis. 1 is the unsharded baseline where
// lock choice matters most; by 16 the per-thread streams have their own
// shards and the arbitration method stops mattering for throughput.
func vciCounts(o Options) []int {
	if o.Quick {
		return []int{1, 4, 16}
	}
	return []int{1, 4, 16, 64}
}

// vciCell runs one (lock, VCI count) N2N configuration with telemetry
// attached and returns the message rate plus the total wait time on the
// proc-wide arbitration sites: the per-VCI shard sections and the
// shared-NIC injection lock (the one arbitration point sharding cannot
// remove). The explicit placement (one setup-time comm per thread,
// pinned to VCI t%n) keeps the thread→shard assignment exact and
// balanced at every count, so the curves measure sharding itself rather
// than context-hash collision luck. Telemetry is purely observational, so
// attaching it does not perturb the simulated rate.
func vciCell(o Options, k simlock.Kind, n int) (rate, csWaitNs, nicWaitNs float64, err error) {
	rec := telemetry.New()
	p := workloads.N2NParams{
		Lock:          k,
		Procs:         4,
		Threads:       8,
		MsgBytes:      2048,
		Windows:       o.windows(),
		Seed:          o.seed(),
		PerThreadTags: true,
		VCIs:          n,
		VCIPolicy:     vci.Explicit,
		Tel:           rec,
	}
	r, err := workloads.N2N(p)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("vci lock %v n=%d: %w", k, n, err)
	}
	for _, g := range telemetry.GroupVCILocks(rec.Profile()) {
		switch {
		case len(g.Name) >= 3 && g.Name[:3] == "cs[":
			csWaitNs += g.WaitNs
		case len(g.Name) >= 4 && g.Name[:4] == "nic[":
			nicWaitNs += g.WaitNs
		}
	}
	return r.RateMsgsPerSec, csWaitNs, nicWaitNs, nil
}

// vciExp sweeps lock kind x VCI count over the N2N streaming benchmark
// with one explicitly placed communicator per thread, so each thread's
// stream lands on its own shard once enough VCIs exist. The first table
// is the crossover the VCI literature reports: with one VCI the
// arbitration method separates the locks, and as shards multiply the
// curves converge — fine-grained resources beat arbitration. The second
// and third tables show where the wait time went: the shard critical
// sections drain with sharding, while the shared-NIC injection lock
// remains and still differentiates the lock kinds at 16+ VCIs.
func vciExp(o Options, pl *Plan) ([]*report.Table, error) {
	counts := vciCounts(o)
	tput := &report.Table{ID: "vci-throughput",
		Title:  "N2N throughput vs. VCIs per proc (lock crossover)",
		XLabel: "VCIs/proc", YLabel: "msgs/s"}
	cswait := &report.Table{ID: "vci-cswait",
		Title:  "Critical-section wait time vs. VCIs per proc",
		XLabel: "VCIs/proc", YLabel: "total wait ns"}
	nicwait := &report.Table{ID: "vci-nicwait",
		Title:  "Shared-NIC injection-lock wait time vs. VCIs per proc",
		XLabel: "VCIs/proc", YLabel: "total wait ns"}
	for _, k := range vciLocks {
		ts := tput.AddSeries(k.String())
		cs := cswait.AddSeries(k.String())
		ns := nicwait.AddSeries(k.String())
		for _, n := range counts {
			k, n := k, n
			cell := pl.Values(3, func() ([]float64, error) {
				rate, csW, nicW, err := vciCell(o, k, n)
				if err != nil {
					return nil, err
				}
				return []float64{rate, csW, nicW}, nil
			})
			x := float64(n)
			ts.Add(x, cell[0])
			cs.Add(x, cell[1])
			ns.Add(x, cell[2])
		}
	}
	return []*report.Table{tput, cswait, nicwait}, nil
}
