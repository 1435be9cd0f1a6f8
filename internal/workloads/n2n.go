package workloads

import (
	"fmt"

	"mpicontend/internal/fault"
	"mpicontend/internal/machine"
	"mpicontend/internal/mpi"
	"mpicontend/internal/mpi/vci"
	"mpicontend/internal/sim"
	"mpicontend/internal/simlock"
	"mpicontend/internal/telemetry"
)

// N2NParams configures the all-to-all streaming benchmark of §5.2: every
// process runs a team of threads, each streaming windows of messages to and
// from all other processes. Unlike the point-to-point benchmark, a thread's
// receive can only match messages from the specific peer it posted for, so
// late posting (a starving main path) sends traffic through the unexpected
// queue and delays matching — the case the priority lock targets.
type N2NParams struct {
	Lock    simlock.Kind
	Binding machine.Binding
	// Procs is the number of processes (paper: 4), one per node.
	Procs    int
	Threads  int
	MsgBytes int64
	// Window is the number of send (and receive) requests per thread per
	// cycle; rounded up to a multiple of the peer count.
	Window  int
	Windows int
	Seed    uint64
	// PerThreadTags pairs thread t of each rank with thread t of every
	// peer via tags, making match pools per-thread (shallow) instead of
	// pooled per-process.
	PerThreadTags bool
	// Partitioned replaces each thread's per-message eager sends with
	// MPI-4 partitioned channels: one persistent Psend/Precv pair per
	// peer, Window/peers partitions per window, each Pready a lock-free
	// bitmap update, and a single aggregated transfer per (peer, window)
	// — so the send path acquires the runtime lock once per aggregate
	// instead of once per message.
	Partitioned bool
	// VCIs shards each proc's runtime into this many virtual communication
	// interfaces (0/1 = the unsharded byte-identical runtime); VCIPolicy
	// places the threads' traffic on them. Under PerComm every thread
	// streams over the world communicator, whose context hash names one
	// shard. Under Explicit the benchmark dups one communicator per
	// thread during setup and pins thread t's comm to VCI t%VCIs — the
	// per-thread-communicator pattern the VCI literature recommends,
	// giving a collision-free, perfectly balanced mapping at every shard
	// count.
	VCIs      int
	VCIPolicy vci.Policy
	// Progress selects who drives the progress engine (docs/PROGRESS.md):
	// polling (default, the paper's poll-from-Wait shape), strong
	// (per-shard progress daemons), or continuation (daemons plus
	// completion-queue Waitall). Non-polling modes require the default
	// ThreadMultiple/GranGlobal configuration this benchmark uses.
	Progress mpi.ProgressMode
	// Fault configures the fault-injection plane (zero = perfect network).
	Fault fault.Config
	// MaxWall bounds real run time in wall-clock ns (0 = unlimited).
	MaxWall int64
	// Tel attaches the telemetry plane (nil = disabled, zero overhead).
	Tel *telemetry.Recorder
}

func (p N2NParams) withDefaults() N2NParams {
	if p.Procs <= 0 {
		p.Procs = 4
	}
	if p.Threads <= 0 {
		p.Threads = 4
	}
	if p.MsgBytes <= 0 {
		p.MsgBytes = 1
	}
	if p.Window <= 0 {
		p.Window = 32
	}
	if p.Windows <= 0 {
		p.Windows = 8
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	// Round the window up to a multiple of the peer count so every
	// (src,dst) pair exchanges the same number of messages per cycle;
	// otherwise receives posted for a specific peer could outnumber that
	// peer's sends and the final Waitall would never finish.
	if peers := p.Procs - 1; peers > 0 && p.Window%peers != 0 {
		p.Window += peers - p.Window%peers
	}
	return p
}

// N2NResult aggregates the run.
type N2NResult struct {
	Messages       int64
	SimNs          int64
	RateMsgsPerSec float64
	UnexpectedHits int64
	// Net holds the resilience counters (all zero on a perfect network).
	Net mpi.NetStats
	// Part holds the partitioned-path counters (all zero unless
	// Partitioned is set).
	Part mpi.PartStats
	// Engine is the simulator's own work account for the run.
	Engine sim.Stats
}

// N2N runs the all-to-all streaming benchmark.
func N2N(p N2NParams) (N2NResult, error) {
	p = p.withDefaults()
	var res N2NResult
	w, err := mpi.NewWorld(mpi.Config{
		Topo:     machine.Nehalem2x4(p.Procs),
		Lock:     p.Lock,
		Binding:  p.Binding,
		Seed:     p.Seed,
		Fault:    p.Fault,
		MaxWall:  p.MaxWall,
		Tel:      p.Tel,
		VCIs:     p.VCIs,
		Progress: p.Progress,
	})
	if err != nil {
		return res, err
	}
	c := w.Comm()
	// Under the Explicit policy each thread streams over its own setup-time
	// communicator pinned to VCI t%VCIs: matching is per-thread by context
	// and the shard mapping is exact, not hashed.
	var comms []*mpi.Comm
	if p.VCIPolicy == vci.Explicit {
		comms = make([]*mpi.Comm, p.Threads)
		for t := range comms {
			comms[t] = w.SetupComm().SetVCI(t % w.Cfg.VCIs)
		}
	}
	var endAt int64
	for rank := 0; rank < p.Procs; rank++ {
		rank := rank
		for t := 0; t < p.Threads; t++ {
			t := t
			tc := c
			if comms != nil {
				tc = comms[t]
			}
			w.Spawn(rank, "n2n", func(th *mpi.Thread) {
				runN2NThread(th, tc, p, rank, t, &endAt)
			})
		}
	}
	if err := w.Run(); err != nil {
		return res, fmt.Errorf("n2n(%v,%dB): %w", p.Lock, p.MsgBytes, err)
	}
	res.Messages = int64(p.Procs) * int64(p.Threads) * int64(p.Window) * int64(p.Windows)
	res.SimNs = endAt
	if endAt > 0 {
		res.RateMsgsPerSec = float64(res.Messages) / (float64(endAt) / 1e9)
	}
	for _, pr := range w.Procs {
		res.UnexpectedHits += pr.UnexpectedHits
	}
	res.Net = w.NetStats()
	res.Part = w.PartStats()
	res.Engine = w.Eng.Stats()
	if p.Fault.Enabled() && !p.Fault.CrashesEnabled() {
		if err := w.CheckClean(); err != nil {
			return res, fmt.Errorf("n2n(%v,%dB): %w", p.Lock, p.MsgBytes, err)
		}
	}
	return res, nil
}

// runN2NThread drives one benchmark thread.
func runN2NThread(th *mpi.Thread, c *mpi.Comm, p N2NParams, rank, t int, endAt *int64) {
	peers := make([]int, 0, p.Procs-1)
	for q := 0; q < p.Procs; q++ {
		if q != rank {
			peers = append(peers, q)
		}
	}
	tag := 0
	if p.PerThreadTags {
		tag = t
	}
	stamp := func() {
		if th.S.Now() > *endAt {
			*endAt = th.S.Now()
		}
	}

	if p.Partitioned {
		runN2NPartitioned(th, c, p, t, peers, tag, stamp)
		return
	}

	issue := func(peer int, recv bool) *mpi.Request {
		th.S.Sleep(th.P.Cost().AppPerMessageWork)
		if recv {
			return th.Irecv(c, peer, tag)
		}
		return th.Isend(c, peer, tag, p.MsgBytes, nil)
	}

	// Sends go first, so arrivals race the receive posting: a thread
	// starved at the main-path entry posts late and its peers' messages
	// detour through the unexpected queue (§5.2).
	rs := make([]*mpi.Request, 0, 2*p.Window)
	for win := 0; win < p.Windows; win++ {
		rs = rs[:0]
		for i := 0; i < p.Window; i++ {
			rs = append(rs, issue(peers[(i+t)%len(peers)], false))
		}
		for i := 0; i < p.Window; i++ {
			rs = append(rs, issue(peers[(i+t)%len(peers)], true))
		}
		th.Waitall(rs) //simcheck:allow errdrop benchmark loop under the fatal handler; errors panic inside Waitall
		stamp()
	}
}

// runN2NPartitioned drives one thread of the partitioned variant: the same
// traffic volume as the batch shape — Window messages to and from every
// peer group per cycle — but each per-message eager send becomes a Pready
// on a persistent partitioned channel. The per-message application work is
// identical; what disappears is the per-message runtime lock traffic,
// replaced by one trigger (and one Pstart/Pwait pair) per peer per window.
func runN2NPartitioned(th *mpi.Thread, c *mpi.Comm, p N2NParams, t int, peers []int, tag int, stamp func()) {
	parts := p.Window / len(peers) // Window is rounded to a peer multiple
	psend := make([]*mpi.Prequest, len(peers))
	precv := make([]*mpi.Prequest, len(peers))
	for i, peer := range peers {
		psend[i] = th.PsendInit(c, peer, tag, parts, p.MsgBytes, nil)
		precv[i] = th.PrecvInit(c, peer, tag, parts, p.MsgBytes)
	}
	next := make([]int, len(peers))
	for win := 0; win < p.Windows; win++ {
		for i := range peers {
			next[i] = 0
			th.Pstart(psend[i])
		}
		// The per-partition stream, in the batch shape's message order:
		// same application-level work per message, but the runtime call is
		// a lock-free bitmap update (the last one per peer triggers that
		// peer's aggregate).
		for i := 0; i < p.Window; i++ {
			pi := (i + t) % len(peers)
			th.S.Sleep(th.P.Cost().AppPerMessageWork)
			th.Pready(psend[pi], next[pi]) //simcheck:allow errdrop benchmark loop under the fatal handler; errors panic inside Pready
			next[pi]++
		}
		// Receives post after the send burst, like the batch shape:
		// aggregates that already landed detour through the partitioned
		// unexpected queue.
		for i := range peers {
			th.Pstart(precv[i])
		}
		for i := range peers {
			th.Pwait(psend[i]) //simcheck:allow errdrop benchmark loop under the fatal handler; errors panic inside Pwait
			th.Pwait(precv[i]) //simcheck:allow errdrop benchmark loop under the fatal handler; errors panic inside Pwait
		}
		stamp()
	}
}
