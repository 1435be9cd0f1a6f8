package experiments

import (
	"mpicontend/internal/machine"
	"mpicontend/internal/report"
	"mpicontend/internal/simlock"
	"mpicontend/internal/workloads"
)

func init() {
	register("table1", "Target machine specification (Table 1)", table1)
	register("fig2a", "Mutex multithreaded throughput vs message size (Fig. 2a)", fig2a)
	register("fig2b", "Effect of thread concurrency and NUMA binding (Fig. 2b)", fig2b)
	register("fig3a", "Mutex arbitration bias factors (Fig. 3a)", fig3a)
	register("fig3c", "Dangling requests under mutex (Fig. 3c)", fig3c)
	register("fig5a", "Dangling requests: mutex vs ticket (Fig. 5a)", fig5a)
	register("fig5b", "Binding and concurrency: mutex vs ticket (Fig. 5b)", fig5b)
	register("fig5c", "Process-per-socket throughput: mutex vs ticket (Fig. 5c)", fig5c)
	register("fig6b", "N2N throughput: ticket vs priority (Fig. 6b)", fig6b)
	register("fig8a", "Two-sided throughput, all methods (Fig. 8a)", fig8a)
	register("fig8b", "Two-sided latency, all methods (Fig. 8b)", fig8b)
	register("fig9a", "RMA Put with async progress (Fig. 9a)", rmaFig(workloads.OpPut))
	register("fig9b", "RMA Get with async progress (Fig. 9b)", rmaFig(workloads.OpGet))
	register("fig9c", "RMA Accumulate with async progress (Fig. 9c)", rmaFig(workloads.OpAcc))
}

func table1(o Options, pl *Plan) ([]*report.Table, error) {
	spec := machine.Table1(machine.Nehalem2x4(310))
	t := &report.Table{ID: "table1", Title: "Target machine specification",
		XLabel: "-", YLabel: "see text"}
	_ = spec
	// Rendered as text by the caller; embed as a single-series marker.
	s := t.AddSeries(spec.Architecture)
	s.Add(0, float64(spec.Sockets))
	return []*report.Table{t}, nil
}

// Table1Text renders the Table 1 specification as text.
func Table1Text() string {
	return machine.Table1(machine.Nehalem2x4(310)).String()
}

// throughputRate declares one throughput point and yields its rate in
// 10^3 msgs/s, as in the paper.
func throughputRate(pl *Plan, p workloads.ThroughputParams) float64 {
	return pl.Value(func() (float64, error) {
		r, err := workloads.Throughput(p)
		if err != nil {
			return 0, err
		}
		return r.RateMsgsPerSec / 1000, nil
	})
}

func throughputSeries(o Options, pl *Plan, t *report.Table, name string, mk func(bytes int64) workloads.ThroughputParams) {
	s := t.AddSeries(name)
	for _, bytes := range o.msgSizes() {
		s.Add(float64(bytes), throughputRate(pl, mk(bytes)))
	}
}

func baseTP(o Options, lock simlock.Kind, threads int, bytes int64) workloads.ThroughputParams {
	return workloads.ThroughputParams{
		Lock: lock, Threads: threads, MsgBytes: bytes,
		Windows: o.windows(), Seed: o.seed(),
		Binding: machine.Compact,
	}
}

func fig2a(o Options, pl *Plan) ([]*report.Table, error) {
	t := &report.Table{ID: "fig2a", Title: "Mutex throughput vs message size and threads",
		XLabel: "msg bytes", YLabel: "10^3 msgs/s"}
	for _, tpn := range []int{1, 2, 4, 8} {
		tpn := tpn
		name := map[int]string{1: "1 tpn", 2: "2 tpn", 4: "4 tpn", 8: "8 tpn"}[tpn]
		throughputSeries(o, pl, t, name, func(b int64) workloads.ThroughputParams {
			return baseTP(o, simlock.KindMutex, tpn, b)
		})
	}
	return []*report.Table{t}, nil
}

func fig2b(o Options, pl *Plan) ([]*report.Table, error) {
	t := &report.Table{ID: "fig2b", Title: "Compact vs scatter binding (mutex, 1B messages)",
		XLabel: "threads per node", YLabel: "10^3 msgs/s"}
	for _, binding := range []machine.Binding{machine.Compact, machine.Scatter} {
		s := t.AddSeries(binding.String())
		for _, threads := range []int{2, 4} {
			p := baseTP(o, simlock.KindMutex, threads, 1)
			p.Binding = binding
			s.Add(float64(threads), throughputRate(pl, p))
		}
	}
	return []*report.Table{t}, nil
}

func fig3a(o Options, pl *Plan) ([]*report.Table, error) {
	t := &report.Table{ID: "fig3a", Title: "Mutex arbitration bias factors (8 threads)",
		XLabel: "msg bytes", YLabel: "bias factor (1 = fair)"}
	core := t.AddSeries("Core Level")
	sock := t.AddSeries("Socket Level")
	for _, bytes := range o.msgSizes() {
		if bytes > 65536 {
			continue // the paper's Fig. 3a stops at 32K
		}
		p := baseTP(o, simlock.KindMutex, 8, bytes)
		p.TraceRank = 1
		bias := pl.Values(2, func() ([]float64, error) {
			r, err := workloads.Throughput(p)
			if err != nil {
				return nil, err
			}
			return []float64{r.BiasCore, r.BiasSocket}, nil
		})
		core.Add(float64(bytes), bias[0])
		sock.Add(float64(bytes), bias[1])
	}
	return []*report.Table{t}, nil
}

func danglingTable(o Options, pl *Plan, id, title string, kinds []simlock.Kind) *report.Table {
	t := &report.Table{ID: id, Title: title,
		XLabel: "msg bytes", YLabel: "avg dangling requests"}
	for _, k := range kinds {
		s := t.AddSeries(k.String())
		for _, bytes := range o.msgSizes() {
			if bytes > 4096 {
				continue // paper sweeps 1B..4KB here
			}
			p := baseTP(o, k, 8, bytes)
			p.TraceRank = 1
			dangling := pl.Value(func() (float64, error) {
				r, err := workloads.Throughput(p)
				if err != nil {
					return 0, err
				}
				return r.DanglingAvg, nil
			})
			s.Add(float64(bytes), dangling)
		}
	}
	return t
}

func fig3c(o Options, pl *Plan) ([]*report.Table, error) {
	t := danglingTable(o, pl, "fig3c", "Dangling requests (mutex, 8 threads)",
		[]simlock.Kind{simlock.KindMutex})
	return []*report.Table{t}, nil
}

func fig5a(o Options, pl *Plan) ([]*report.Table, error) {
	t := danglingTable(o, pl, "fig5a", "Dangling requests: mutex vs ticket",
		[]simlock.Kind{simlock.KindMutex, simlock.KindTicket})
	return []*report.Table{t}, nil
}

func fig5b(o Options, pl *Plan) ([]*report.Table, error) {
	t := &report.Table{ID: "fig5b", Title: "Binding and concurrency (1B messages)",
		XLabel: "threads per node", YLabel: "10^3 msgs/s"}
	for _, k := range []simlock.Kind{simlock.KindMutex, simlock.KindTicket} {
		for _, binding := range []machine.Binding{machine.Compact, machine.Scatter} {
			s := t.AddSeries(k.String() + "_" + binding.String())
			for _, threads := range []int{1, 2, 4} {
				p := baseTP(o, k, threads, 1)
				p.Binding = binding
				s.Add(float64(threads), throughputRate(pl, p))
			}
		}
	}
	return []*report.Table{t}, nil
}

func fig5c(o Options, pl *Plan) ([]*report.Table, error) {
	t := &report.Table{ID: "fig5c", Title: "One process per socket, 4 threads each",
		XLabel: "msg bytes", YLabel: "10^3 msgs/s"}
	for _, k := range []simlock.Kind{simlock.KindMutex, simlock.KindTicket} {
		k := k
		throughputSeries(o, pl, t, k.String(), func(b int64) workloads.ThroughputParams {
			p := baseTP(o, k, 4, b)
			p.ProcsPerNode = 2
			return p
		})
	}
	return []*report.Table{t}, nil
}

func fig6b(o Options, pl *Plan) ([]*report.Table, error) {
	t := &report.Table{ID: "fig6b", Title: "N2N throughput with 4 processes",
		XLabel: "msg bytes", YLabel: "10^3 msgs/s"}
	for _, k := range []simlock.Kind{simlock.KindTicket, simlock.KindPriority} {
		s := t.AddSeries(k.String())
		for _, bytes := range o.msgSizes() {
			p := workloads.N2NParams{
				Lock: k, Procs: 4, Threads: 8, MsgBytes: bytes,
				Windows: o.windows(), Seed: o.seed(),
				Progress: o.Progress,
			}
			rate := pl.Value(func() (float64, error) {
				r, err := workloads.N2N(p)
				if err != nil {
					return 0, err
				}
				return r.RateMsgsPerSec / 1000, nil
			})
			s.Add(float64(bytes), rate)
		}
	}
	return []*report.Table{t}, nil
}

var allMethods = []simlock.Kind{simlock.KindNone, simlock.KindMutex,
	simlock.KindTicket, simlock.KindPriority}

func fig8a(o Options, pl *Plan) ([]*report.Table, error) {
	t := &report.Table{ID: "fig8a", Title: "Two-sided throughput, 8 threads",
		XLabel: "msg bytes", YLabel: "10^3 msgs/s"}
	for _, k := range allMethods {
		k := k
		threads := 8
		if k == simlock.KindNone {
			threads = 1 // MPI_THREAD_SINGLE baseline
		}
		throughputSeries(o, pl, t, k.String(), func(b int64) workloads.ThroughputParams {
			return baseTP(o, k, threads, b)
		})
	}
	return []*report.Table{t}, nil
}

func fig8b(o Options, pl *Plan) ([]*report.Table, error) {
	t := &report.Table{ID: "fig8b", Title: "Two-sided latency, 8 threads",
		XLabel: "msg bytes", YLabel: "latency us"}
	iters := 50
	if o.Quick {
		iters = 15
	}
	for _, k := range allMethods {
		threads := 8
		if k == simlock.KindNone {
			threads = 1
		}
		s := t.AddSeries(k.String())
		for _, bytes := range o.msgSizes() {
			p := workloads.LatencyParams{
				Lock: k, Threads: threads, MsgBytes: bytes,
				Iters: iters, Seed: o.seed(),
			}
			lat := pl.Value(func() (float64, error) {
				r, err := workloads.Latency(p)
				if err != nil {
					return 0, err
				}
				return r.AvgOneWayUs, nil
			})
			s.Add(float64(bytes), lat)
		}
	}
	return []*report.Table{t}, nil
}

// elemSizes returns the RMA element-size sweep (paper: 8B..2MB).
func (o Options) elemSizes() []int64 {
	if o.Quick {
		return []int64{8, 512, 32768}
	}
	return []int64{8, 64, 512, 4096, 32768, 262144, 2097152}
}

func rmaFig(op workloads.RMAOp) func(Options, *Plan) ([]*report.Table, error) {
	return func(o Options, pl *Plan) ([]*report.Table, error) {
		id := map[workloads.RMAOp]string{
			workloads.OpPut: "fig9a", workloads.OpGet: "fig9b", workloads.OpAcc: "fig9c",
		}[op]
		t := &report.Table{ID: id,
			Title:  "RMA " + op.String() + " with asynchronous progress (8 processes)",
			XLabel: "element bytes", YLabel: "10^3 elements/s"}
		ops := 16
		if o.Quick {
			ops = 6
		}
		for _, k := range []simlock.Kind{simlock.KindMutex, simlock.KindTicket, simlock.KindPriority} {
			s := t.AddSeries(k.String())
			for _, elem := range o.elemSizes() {
				p := workloads.RMAParams{
					Lock: k, Op: op, ElemBytes: elem, Ops: ops,
					Window: 1, Seed: o.seed(),
				}
				rate := pl.Value(func() (float64, error) {
					r, err := workloads.RMA(p)
					if err != nil {
						return 0, err
					}
					return r.RateElemPerSec / 1000, nil
				})
				s.Add(float64(elem), rate)
			}
		}
		return []*report.Table{t}, nil
	}
}
