package workloads

import (
	"testing"

	"mpicontend/internal/mpi"
	"mpicontend/internal/mpi/vci"
	"mpicontend/internal/sim"
	"mpicontend/internal/simlock"
)

// enginePoint is one benchmark point shape at seed 1, with its budget of
// coroutine resumes per message.
type enginePoint struct {
	name   string
	budget float64
	run    func() (msgs int64, st sim.Stats, err error)
}

// enginePoints are the benchmark's point shapes at seed 1 under each lock
// kind it sweeps: the fig. 8a shape (2 ranks x 8 threads, 64 B, 1 VCI,
// polling) and the N2N shape (4 x 8 threads, 2 KiB, 16 VCIs, continuation
// progress), eager and partitioned.
func enginePoints() []enginePoint {
	var ps []enginePoint
	locks := []simlock.Kind{simlock.KindMutex, simlock.KindTicket, simlock.KindPriority, simlock.KindCLH}
	for _, lk := range locks {
		p := ThroughputParams{Lock: lk, Threads: 8, MsgBytes: 64, Window: 64, Windows: 4, Seed: 1}
		ps = append(ps, enginePoint{"p2p/" + lk.String(), 15, func() (int64, sim.Stats, error) {
			r, err := Throughput(p)
			return r.Messages, r.Engine, err
		}})
	}
	for _, part := range []bool{false, true} {
		for _, lk := range locks {
			p := N2NParams{Lock: lk, Procs: 4, Threads: 8, MsgBytes: 2048, Window: 33, Windows: 1,
				VCIs: 16, VCIPolicy: vci.Explicit, Progress: mpi.ProgressContinuation, Partitioned: part, Seed: 1}
			name, budget := "n2n/eager/"+lk.String(), 25.0
			if part {
				p.Windows = 8
				name, budget = "n2n/partitioned/"+lk.String(), 7
			}
			ps = append(ps, enginePoint{name, budget, func() (int64, sim.Stats, error) {
				r, err := N2N(p)
				return r.Messages, r.Engine, err
			}})
		}
	}
	return ps
}

// TestEngineWorkPerMessage pins the simulator's own work on the benchmark
// point shapes: the counters are deterministic, so any change to how many
// events or coroutine resumes a message costs shows up here exactly.
// Resumes+InlineSleeps+ElidedWakes is what Resumes would be without the
// engine's two fast paths (86-88 per eager N2N message, 19 per p2p one).
func TestEngineWorkPerMessage(t *testing.T) {
	want := map[string]sim.Stats{
		"p2p/Mutex":                {Events: 57198, Resumes: 30442, InlineSleeps: 9353, ElidedWakes: 0},
		"p2p/Ticket":               {Events: 49549, Resumes: 28926, InlineSleeps: 10286, ElidedWakes: 0},
		"p2p/Priority":             {Events: 49567, Resumes: 29048, InlineSleeps: 10128, ElidedWakes: 0},
		"p2p/CLH":                  {Events: 49549, Resumes: 28965, InlineSleeps: 10247, ElidedWakes: 0},
		"n2n/eager/Mutex":          {Events: 76840, Resumes: 22842, InlineSleeps: 644, ElidedWakes: 45454},
		"n2n/eager/Ticket":         {Events: 95817, Resumes: 25063, InlineSleeps: 666, ElidedWakes: 65554},
		"n2n/eager/Priority":       {Events: 97593, Resumes: 26355, InlineSleeps: 745, ElidedWakes: 65987},
		"n2n/eager/CLH":            {Events: 95561, Resumes: 25101, InlineSleeps: 642, ElidedWakes: 65264},
		"n2n/partitioned/Mutex":    {Events: 118956, Resumes: 56991, InlineSleeps: 3599, ElidedWakes: 35376},
		"n2n/partitioned/Ticket":   {Events: 88370, Resumes: 54093, InlineSleeps: 2697, ElidedWakes: 29184},
		"n2n/partitioned/Priority": {Events: 89106, Resumes: 54793, InlineSleeps: 2733, ElidedWakes: 29184},
		"n2n/partitioned/CLH":      {Events: 88370, Resumes: 54093, InlineSleeps: 2697, ElidedWakes: 29184},
	}
	for _, pt := range enginePoints() {
		msgs, got, err := pt.run()
		if err != nil {
			t.Fatalf("%s: %v", pt.name, err)
		}
		if got != want[pt.name] {
			t.Errorf("%s: engine stats %+v, want %+v", pt.name, got, want[pt.name])
		}
		if per := float64(got.Resumes) / float64(msgs); per > pt.budget {
			t.Errorf("%s: %.2f resumes per message, budget %v", pt.name, per, pt.budget)
		}
	}
}
