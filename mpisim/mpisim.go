// Package mpisim is the public facade of the MPI-runtime contention
// simulator reproducing "MPI+Threads: Runtime Contention and Remedies"
// (PPoPP'15). It exposes the paper's benchmarks — multithreaded
// point-to-point throughput and latency, N2N all-to-all streaming, RMA
// with asynchronous progress, Graph500 BFS, a 3-D stencil, and a genome
// assembler — over a deterministic discrete-event model of a NUMA cluster,
// with the critical-section arbitration (pthread mutex, ticket, priority)
// as the experimental variable.
//
// Quick start:
//
//	res, err := mpisim.Throughput(mpisim.ThroughputConfig{
//		Lock: mpisim.Ticket, Threads: 8, MsgBytes: 64,
//	})
//	fmt.Printf("%.0f msgs/s\n", res.RateMsgsPerSec)
//
// Every type and constant here is an alias of the internal one it names,
// and every benchmark entry point forwards to its internal runner, so the
// facade adds no behaviour and every workload knob is visible as is.
//
// mpisim fronts the deterministic core (docs/ARCHITECTURE.md): every call
// builds an isolated engine from its config and seed and is a pure
// function of them. Sweep and RunPoints fan such isolated runs across OS
// workers with byte-identical output.
package mpisim

import (
	"mpicontend/internal/experiments"
	"mpicontend/internal/fault"
	"mpicontend/internal/genome"
	"mpicontend/internal/graph500"
	"mpicontend/internal/machine"
	"mpicontend/internal/mpi"
	"mpicontend/internal/mpi/vci"
	"mpicontend/internal/report"
	"mpicontend/internal/simlock"
	"mpicontend/internal/stencil"
	"mpicontend/internal/telemetry"
	"mpicontend/internal/workloads"
)

// FaultConfig describes a fault-injection scenario, the resilient
// transport's tuning and the fail-stop crash schedule. The zero value is a
// perfect network, byte-identical to a run without the fault plane.
type FaultConfig = fault.Config

// CrashSpec schedules one fail-stop failure.
type CrashSpec = fault.CrashSpec

// NetStats reports the resilient transport's counters for one run.
type NetStats = mpi.NetStats

// PartStats reports the MPI-4 partitioned-communication counters.
type PartStats = mpi.PartStats

// ErrIllegalConfig is wrapped by every rejection of a runtime
// configuration the simulator cannot model.
var ErrIllegalConfig = mpi.ErrIllegalConfig

// Lock selects the critical-section arbitration of the simulated runtime.
type Lock = simlock.Kind

// Arbitration methods. Mutex is the paper's baseline; Ticket and Priority
// are its remedies; Single models MPI_THREAD_SINGLE (one thread, no lock);
// the rest are related-work and ablation variants.
const (
	Mutex          = simlock.KindMutex
	Ticket         = simlock.KindTicket
	Priority       = simlock.KindPriority
	Single         = simlock.KindNone
	TAS            = simlock.KindTAS
	MCS            = simlock.KindMCS
	PrioMutex      = simlock.KindPrioMutex
	SocketPriority = simlock.KindSocketPriority
	Cohort         = simlock.KindCohort
	CLH            = simlock.KindCLH
)

// Binding selects how threads are pinned to cores (paper §4.2).
type Binding = machine.Binding

// Thread-to-core binding policies.
const (
	Compact = machine.Compact
	Scatter = machine.Scatter
)

// Granularity selects the critical-section granularity (paper Fig. 1).
type Granularity = mpi.Granularity

// Critical-section granularities, coarse to fine.
const (
	Global      = mpi.GranGlobal
	BriefGlobal = mpi.GranBrief
	FineGrain   = mpi.GranFine
	LockFree    = mpi.GranLockFree
)

// VCIPolicy places N2N threads' traffic on a proc's virtual
// communication interfaces when VCIs > 1.
type VCIPolicy = vci.Policy

// N2N placement policies: every thread on the world comm, or one comm
// per thread pinned to its own VCI.
const (
	PerComm     = vci.PerComm
	ExplicitVCI = vci.Explicit
)

// ProgressMode selects who drives the MPI progress engine
// (docs/PROGRESS.md).
type ProgressMode = mpi.ProgressMode

// Progress modes: polling from Wait (the paper's shape, the default),
// one progress daemon per VCI shard, or daemons plus completion-queue
// continuations.
const (
	PollingProgress      = mpi.ProgressPolling
	StrongProgress       = mpi.ProgressStrong
	ContinuationProgress = mpi.ProgressContinuation
)

// RMAOp selects the one-sided operation (paper §6.1.2).
type RMAOp = workloads.RMAOp

// One-sided operations.
const (
	Put        = workloads.OpPut
	Get        = workloads.OpGet
	Accumulate = workloads.OpAcc
)

// PatternKind selects a scenario of the multithreaded MPI pattern battery
// (after Thakur & Gropp; paper §8 ref [27]).
type PatternKind = workloads.Pattern

// Battery scenarios.
const (
	ConcurrentPairs = workloads.PatternConcurrentPairs
	FanIn           = workloads.PatternFanIn
	FanOut          = workloads.PatternFanOut
	ComputeOverlap  = workloads.PatternComputeOverlap
)

// RecoveryStrategy selects how survivors continue after a rank failure.
type RecoveryStrategy = workloads.RecoveryStrategy

// Recovery strategies: shrink-and-redistribute or in-memory
// checkpoint/restart.
const (
	Shrink     = workloads.RecoverShrink
	Checkpoint = workloads.RecoverCheckpoint
)

// RecoveryKernel selects the communication structure a failure hits.
type RecoveryKernel = workloads.RecoveryKernel

// Recovery kernels: ring halo exchange or all-to-all.
const (
	KernelRing = workloads.KernelRing
	KernelN2N  = workloads.KernelN2N
)

// Benchmark configurations and results (paper §4.1, §6.1.1, §5.2, §6.1.2,
// the pattern battery and the fault-tolerant iterative workload).
type (
	ThroughputConfig = workloads.ThroughputParams
	ThroughputResult = workloads.ThroughputResult
	LatencyConfig    = workloads.LatencyParams
	LatencyResult    = workloads.LatencyResult
	N2NConfig        = workloads.N2NParams
	N2NResult        = workloads.N2NResult
	RMAConfig        = workloads.RMAParams
	RMAResult        = workloads.RMAResult
	PatternConfig    = workloads.PatternParams
	PatternResult    = workloads.PatternResult
	RecoveryConfig   = workloads.RecoveryParams
	RecoveryResult   = workloads.RecoveryResult
)

// Application kernels (paper §6.2.1, §6.2.2, §6.3).
type (
	BFSConfig      = graph500.Params
	BFSResult      = graph500.Result
	StencilConfig  = stencil.Params
	StencilResult  = stencil.Result
	AssemblyConfig = genome.Params
	AssemblyResult = genome.Result
)

// Throughput runs the multithreaded point-to-point throughput benchmark.
func Throughput(c ThroughputConfig) (ThroughputResult, error) { return workloads.Throughput(c) }

// Latency runs the multithreaded ping-pong latency benchmark.
func Latency(c LatencyConfig) (LatencyResult, error) { return workloads.Latency(c) }

// N2N runs the all-to-all streaming benchmark.
func N2N(c N2NConfig) (N2NResult, error) { return workloads.N2N(c) }

// RMA runs the one-sided benchmark with asynchronous progress threads.
func RMA(c RMAConfig) (RMAResult, error) { return workloads.RMA(c) }

// Pattern runs one scenario of the multithreaded pattern battery.
func Pattern(c PatternConfig) (PatternResult, error) { return workloads.RunPattern(c) }

// Recovery runs the fault-tolerant iterative workload: survivors detect the
// configured crashes, revoke and shrink the communicator (or roll back to a
// checkpoint) and finish the computation.
func Recovery(c RecoveryConfig) (RecoveryResult, error) { return workloads.Recovery(c) }

// BFS runs the Graph500 BFS kernel.
func BFS(c BFSConfig) (BFSResult, error) { return graph500.Run(c) }

// Stencil runs the 3-D 7-point stencil kernel.
func Stencil(c StencilConfig) (StencilResult, error) { return stencil.Run(c) }

// Assembly runs the SWAP-style genome assembly application.
func Assembly(c AssemblyConfig) (AssemblyResult, error) { return genome.Run(c) }

// Figure is a rendered experiment table.
type Figure struct {
	ID    string
	Title string
	Text  string
	// Chart is an ASCII rendering of the same series.
	Chart string
	// Data is the machine-readable form of the figure (nil for text-only
	// tables like table1). Data.Marshal() emits the flat JSON schema.
	Data *FigureData
}

// Experiments lists the runnable experiment ids (tables/figures of the
// paper plus ablations).
func Experiments() []string { return experiments.IDs() }

// RunExperimentMode regenerates the given table/figure. quick shrinks the
// sweep for fast runs, seed is the base RNG seed (0 = the default seed),
// and progress sets the progress mode for the experiments that honour it
// (the N2N-shaped figures; the progress experiment sweeps every mode
// itself).
func RunExperimentMode(id string, quick bool, seed uint64, progress ProgressMode) ([]Figure, error) {
	e, err := experiments.Get(id)
	if err != nil {
		return nil, err
	}
	if id == "table1" {
		return figuresFor(e, nil), nil
	}
	tables, err := e.Run(experiments.Options{Quick: quick, Seed: seed, Progress: progress})
	if err != nil {
		return nil, err
	}
	return figuresFor(e, tables), nil
}

// figuresFor converts an experiment's rendered tables to public Figures.
// It is the single table→Figure path, shared by the one-experiment entry
// point and the parallel Sweep, so both produce identical bytes.
func figuresFor(e experiments.Experiment, tables []*report.Table) []Figure {
	if e.ID == "table1" {
		// Table 1 is static machine-specification text, not a data series.
		return []Figure{{ID: "table1", Title: e.Title, Text: experiments.Table1Text()}}
	}
	figs := make([]Figure, 0, len(tables))
	for _, t := range tables {
		// Text renders through the FigureJSON roundtrip so the ASCII
		// table and the exported JSON are provably views of one dataset.
		data := telemetry.FigureFromTable(t)
		figs = append(figs, Figure{ID: t.ID, Title: t.Title,
			Text: data.ASCII(), Chart: t.Chart(), Data: data})
	}
	return figs
}
