package main

import (
	"fmt"

	"mpicontend/internal/fabric"
	"mpicontend/internal/machine"
	"mpicontend/internal/mpi"
	"mpicontend/internal/sim"
	"mpicontend/internal/simlock"
	"mpicontend/internal/sweep"
)

// probeReps is how many times each probe runs; the median is reported.
const probeReps = 5

// lockKinds are the four arbitration schemes the point workloads cycle
// through, with the metric-name spelling of each.
var lockKinds = []struct {
	name string
	kind simlock.Kind
}{
	{"mutex", simlock.KindMutex},
	{"ticket", simlock.KindTicket},
	{"priority", simlock.KindPriority},
	{"clh", simlock.KindCLH},
}

// probe is one layer micro-measurement: run performs ops operations and
// the probe reports host nanoseconds per operation.
type probe struct {
	metric string
	ops    int
	run    func(ops int) error
}

// probes lists every layer probe, each on a bare engine, world or pool.
func probes() []probe {
	ps := []probe{
		{"sim.ns_per_switch", 200_000, probeSwitch},
		{"sim.ns_per_event", 500_000, probeEvent},
		{"sim.ns_per_timer", 500_000, probeTimer},
	}
	for _, lk := range lockKinds {
		kind := lk.kind
		ps = append(ps,
			probe{"simlock." + lk.name + ".ns_per_acq_1way", 50_000,
				func(n int) error { return probeLock(kind, 1, n) }},
			probe{"simlock." + lk.name + ".ns_per_acq_8way", 50_000,
				func(n int) error { return probeLock(kind, 8, n) }})
	}
	return append(ps,
		probe{"mpi.ns_per_eager_msg", 20_000, func(n int) error { return probeMsg(64, n) }},
		probe{"mpi.ns_per_rndv_msg", 5_000, func(n int) error { return probeMsg(64<<10, n) }},
		probe{"fabric.ns_per_packet", 200_000, probePacket},
		probe{"sweep.ns_per_point", 200_000, probeSweep},
	)
}

// runProbe times p probeReps times and returns the median ns/op.
func runProbe(p probe, tr *tracer, parent int) (float64, error) {
	var ns []float64
	for r := 0; r < probeReps; r++ {
		id := tr.begin("probe "+p.metric, parent)
		t := now()
		err := p.run(p.ops)
		d := since(t)
		tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", p.metric, err)
		}
		ns = append(ns, float64(d.Nanoseconds())/float64(p.ops))
	}
	return median(ns), nil
}

// probeSwitch ping-pongs two simthreads through Sleep: every Sleep is one
// yield and one dispatch, so 2*half sleeps are ops switches.
func probeSwitch(ops int) error {
	e := sim.NewEngine(1)
	half := ops / 2
	for i := 0; i < 2; i++ {
		e.Spawn("pp", func(t *sim.Thread) {
			for j := 0; j < half; j++ {
				t.Sleep(1)
			}
		})
	}
	return e.Run()
}

// probeEvent runs an AtArg chain at a standing queue depth: each event
// schedules its successor depth ticks later until ops events have run.
func probeEvent(ops int) error {
	const depth = 1024
	e := sim.NewEngine(1)
	left := ops
	var step func(interface{})
	step = func(interface{}) {
		if left--; left >= depth {
			e.AtArg(e.Now()+depth, step, nil)
		}
	}
	for i := 1; i <= depth; i++ {
		e.AtArg(sim.Time(i), step, nil)
	}
	if err := e.Run(); err != nil {
		return err
	}
	if got := e.EventsRun(); got != uint64(ops) {
		return fmt.Errorf("ran %d events, want %d", got, ops)
	}
	return nil
}

// probeTimer arms a far-future timer and cancels it, ops times, then lets
// the engine drain the cancelled entries.
func probeTimer(ops int) error {
	e := sim.NewEngine(1)
	fired := 0
	fire := func(interface{}) { fired++ }
	for i := 0; i < ops; i++ {
		e.AtTimerArg(sim.Time(1_000_000+i), fire, nil).Cancel()
	}
	if err := e.Run(); err != nil {
		return err
	}
	if fired != 0 {
		return fmt.Errorf("%d cancelled timers fired", fired)
	}
	return nil
}

// probeLock has ways simthreads on distinct cores acquire and release one
// lock of the given kind until ops acquisitions are done.
func probeLock(kind simlock.Kind, ways, ops int) error {
	e := sim.NewEngine(1)
	l := simlock.New(kind, &simlock.Config{Eng: e, Cost: machine.Default()})
	acq := 0
	for w := 0; w < ways; w++ {
		place := machine.Place{Socket: w / 4, Core: w % 4}
		e.Spawn("acq", func(t *sim.Thread) {
			c := &simlock.Ctx{T: t, Place: place}
			for i := 0; i < ops/ways; i++ {
				l.Acquire(c, simlock.High)
				acq++
				t.Sleep(10)
				l.Release(c, simlock.High)
			}
		})
	}
	if err := e.Run(); err != nil {
		return err
	}
	if want := ways * (ops / ways); acq != want {
		return fmt.Errorf("%d acquisitions, want %d", acq, want)
	}
	return nil
}

// probeMsg sends ops messages of the given size from rank 0 to rank 1 of
// a two-node world, one Isend/Irecv/Wait pair at a time.
func probeMsg(bytes int64, ops int) error {
	w, err := mpi.NewWorld(mpi.Config{Topo: machine.Nehalem2x4(2), Lock: simlock.KindTicket, Seed: 1})
	if err != nil {
		return err
	}
	c := w.Comm()
	var sendErr, recvErr error
	w.Spawn(0, "send", func(th *mpi.Thread) {
		for i := 0; i < ops && sendErr == nil; i++ {
			sendErr = th.Wait(th.Isend(c, 1, 0, bytes, nil))
		}
	})
	w.Spawn(1, "recv", func(th *mpi.Thread) {
		for i := 0; i < ops && recvErr == nil; i++ {
			recvErr = th.Wait(th.Irecv(c, 0, 0))
		}
	})
	if err := w.Run(); err != nil {
		return err
	}
	if sendErr != nil || recvErr != nil {
		return fmt.Errorf("send %v, recv %v", sendErr, recvErr)
	}
	return nil
}

// probePacket injects ops packets between two endpoints on different
// nodes and counts their deliveries.
func probePacket(ops int) error {
	e := sim.NewEngine(1)
	f := fabric.New(e, machine.Default())
	got := 0
	f.Attach(0, 0, func(p *fabric.Packet) { f.FreePacket(p) })
	f.Attach(1, 1, func(p *fabric.Packet) {
		got++
		f.FreePacket(p)
	})
	src := f.Endpoint(0)
	e.At(0, func() {
		for i := 0; i < ops; i++ {
			p := f.AllocPacket()
			p.Kind, p.Src, p.Dst, p.Bytes = fabric.Eager, 0, 1, 64
			src.Send(p, false)
		}
	})
	if err := e.Run(); err != nil {
		return err
	}
	if got != ops {
		return fmt.Errorf("delivered %d of %d packets", got, ops)
	}
	return nil
}

// probeSweep fans ops no-op points across the default worker pool: the
// orchestrator's own per-point cost.
func probeSweep(ops int) error {
	return sweep.Run(sweep.DefaultWorkers(), ops, func(int) error { return nil })
}
