package experiments

import (
	"fmt"

	"mpicontend/internal/fault"
	"mpicontend/internal/genome"
	"mpicontend/internal/graph500"
	"mpicontend/internal/machine"
	"mpicontend/internal/report"
	"mpicontend/internal/simlock"
	"mpicontend/internal/workloads"
)

func init() {
	register("chaos", "Chaos soak: resilient transport under injected faults", chaos)
}

// chaosLocks are the arbitration methods the soak compares: the paper's
// three plus MCS, the strongest FCFS queue lock.
var chaosLocks = []simlock.Kind{
	simlock.KindMutex, simlock.KindTicket, simlock.KindPriority, simlock.KindMCS,
}

// chaosScenario is one fault regime of the soak.
type chaosScenario struct {
	name string
	fc   fault.Config
}

// chaosWall bounds each faulty run's real time so a transport bug can
// abort CI instead of hanging it.
const chaosWall = 120_000_000_000 // 120 s wall clock

// chaosScenarios enumerates the fault regimes. Every scenario arms the
// progress watchdog so a lost wakeup surfaces as a dangling-request
// report rather than a hang.
func chaosScenarios(seed uint64) []chaosScenario {
	mk := func(name string, fc fault.Config) chaosScenario {
		fc.Seed = seed
		fc.WatchdogNs = 50_000_000 // 50 ms sim between liveness checks
		return chaosScenario{name: name, fc: fc}
	}
	return []chaosScenario{
		mk("drop1", fault.Config{DropProb: 0.01}),
		mk("dup", fault.Config{DupProb: 0.05}),
		mk("delay", fault.Config{DelayProb: 0.10, DelayMaxNs: 40_000}),
		mk("brownout", fault.Config{BrownoutPeriodNs: 2_000_000, BrownoutDurationNs: 500_000}),
		mk("nicstall", fault.Config{NICStallProb: 0.002}),
		mk("preempt", fault.Config{PreemptProb: 0.01}),
		mk("storm", fault.Config{DropProb: 0.01, DupProb: 0.02, DelayProb: 0.05, PreemptProb: 0.005}),
	}
}

// chaosRun is one (scenario, lock) soak cell.
type chaosRun struct {
	goodput  float64 // completed msgs per simulated second
	retx     int64   // timeout + fast retransmits
	dangling int64   // requests failed or abandoned by the transport
}

// chaosCell runs the windowed throughput benchmark at 8 threads under the
// scenario and checks the resilience invariants: the run completes, the
// transport state drains clean (no lost or duplicated deliveries survive
// CheckClean), and a rerun with the same seed is bit-identical. The
// same-seed rerun happens inside the cell, so a cell stays one
// self-contained sweep point.
func chaosCell(o Options, sc chaosScenario, k simlock.Kind) (chaosRun, error) {
	p := workloads.ThroughputParams{
		Lock:     k,
		Binding:  machine.Compact,
		Threads:  8,
		MsgBytes: 512,
		Window:   32,
		Windows:  o.windows(),
		Seed:     o.seed(),
		Fault:    sc.fc,
		MaxWall:  chaosWall,
	}
	run := func() (chaosRun, error) {
		r, err := workloads.Throughput(p)
		if err != nil {
			return chaosRun{}, fmt.Errorf("chaos scenario %q seed %d lock %v: %w",
				sc.name, sc.fc.Seed, k, err)
		}
		return chaosRun{
			goodput:  r.RateMsgsPerSec,
			retx:     r.Net.Retransmits + r.Net.FastRetransmits,
			dangling: r.Net.GiveUps + r.Net.RequestFailures + r.Net.WatchdogStalls,
		}, nil
	}
	first, err := run()
	if err != nil {
		return chaosRun{}, err
	}
	again, err := run()
	if err != nil {
		return chaosRun{}, err
	}
	if first != again {
		return chaosRun{}, fmt.Errorf(
			"chaos scenario %q seed %d lock %v: nondeterministic (%+v vs %+v)",
			sc.name, sc.fc.Seed, k, first, again)
	}
	return first, nil
}

// chaosKernels reruns two full kernels under the representative drop
// scenario and checks their answers against fault-free truth: the BFS
// tree must pass Graph500 validation and the assembler must produce the
// same contigs it produces on a perfect network.
func chaosKernels(o Options, sc chaosScenario) error {
	scale := 10
	bp := graph500.Params{
		Lock: simlock.KindTicket, Procs: 2, Threads: 2,
		Scale: scale, EdgeFactor: 8, Seed: o.seed(),
		Fault: sc.fc, MaxWall: chaosWall,
	}
	br, err := graph500.Run(bp)
	if err != nil {
		return fmt.Errorf("chaos scenario %q seed %d bfs: %w", sc.name, sc.fc.Seed, err)
	}
	edges := graph500.GenerateKronecker(scale, 8, o.seed())
	if err := graph500.Validate(edges, br.Roots[0], br); err != nil {
		return fmt.Errorf("chaos scenario %q seed %d bfs validation: %w", sc.name, sc.fc.Seed, err)
	}

	gp := genome.Params{
		Lock: simlock.KindPriority, Procs: 4,
		GenomeLen: 2000, Reads: 400, Seed: o.seed(),
	}
	truth, err := genome.Run(gp)
	if err != nil {
		return fmt.Errorf("chaos genome baseline: %w", err)
	}
	gp.Fault = sc.fc
	gp.MaxWall = chaosWall
	faulty, err := genome.Run(gp)
	if err != nil {
		return fmt.Errorf("chaos scenario %q seed %d genome: %w", sc.name, sc.fc.Seed, err)
	}
	if len(faulty.Contigs) != len(truth.Contigs) {
		return fmt.Errorf("chaos scenario %q seed %d genome: %d contigs under faults, %d without",
			sc.name, sc.fc.Seed, len(faulty.Contigs), len(truth.Contigs))
	}
	for i := range truth.Contigs {
		if faulty.Contigs[i] != truth.Contigs[i] {
			return fmt.Errorf("chaos scenario %q seed %d genome: contig %d differs under faults",
				sc.name, sc.fc.Seed, i)
		}
	}
	return nil
}

// chaos runs every scenario against every lock and reports goodput,
// retransmission pressure, and dangling-request counts. The x axis is the
// scenario ordinal (1=drop1 2=dup 3=delay 4=brownout 5=nicstall 6=preempt
// 7=storm).
func chaos(o Options, pl *Plan) ([]*report.Table, error) {
	scenarios := chaosScenarios(o.seed())
	if o.Quick {
		scenarios = []chaosScenario{scenarios[0], scenarios[6]} // drop1 + storm
	}
	axis := "scenario ("
	for i, sc := range scenarios {
		if i > 0 {
			axis += " "
		}
		axis += fmt.Sprintf("%d=%s", i+1, sc.name)
	}
	axis += ")"

	good := &report.Table{ID: "chaos", Title: "Chaos soak goodput, 8 threads",
		XLabel: axis, YLabel: "msgs/s"}
	retx := &report.Table{ID: "chaos-retx", Title: "Chaos soak retransmissions",
		XLabel: axis, YLabel: "retransmits"}
	dang := &report.Table{ID: "chaos-dangling", Title: "Chaos soak dangling requests",
		XLabel: axis, YLabel: "dangling"}
	for _, k := range chaosLocks {
		gs := good.AddSeries(k.String())
		rs := retx.AddSeries(k.String())
		ds := dang.AddSeries(k.String())
		for i, sc := range scenarios {
			cell := pl.Values(3, func() ([]float64, error) {
				c, err := chaosCell(o, sc, k)
				if err != nil {
					return nil, err
				}
				return []float64{c.goodput, float64(c.retx), float64(c.dangling)}, nil
			})
			x := float64(i + 1)
			gs.Add(x, cell[0])
			rs.Add(x, cell[1])
			ds.Add(x, cell[2])
		}
	}
	pl.Check(func() error { return chaosKernels(o, scenarios[0]) })
	return []*report.Table{good, retx, dang}, nil
}
