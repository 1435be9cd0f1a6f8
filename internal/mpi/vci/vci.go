// Package vci is the communicator→VCI mapping of the sharded runtime: a
// pure, deterministic function that picks which virtual communication
// interface an operation lands on. A communicator pinned with an explicit
// VCI (Comm.SetVCI, an MPICH-style comm info hint) uses that VCI; every
// other communicator maps by a hash of its context id. Sender and receiver
// evaluate the same function over the same communicator, so a message and
// its matching receive always meet on the same VCI without any
// coordination — the property that makes independent per-VCI critical
// sections possible. One communicator per thread is the pattern Zambre et
// al. ("How I Learned to Stop Worrying About User-Visible Endpoints and
// Love MPI") show matches user-visible endpoints.
//
// The package holds no state and performs no simulation; it is part of
// the deterministic core (docs/ARCHITECTURE.md).
package vci

import "fmt"

// Policy is a workload's communicator placement choice on the sharded
// runtime (workloads.N2NParams.VCIPolicy). The runtime itself has one
// mapping (Select); the policy only decides which communicators a
// workload's threads use.
type Policy int

const (
	// PerComm runs every thread on one shared communicator, which its
	// context hash places on a single VCI.
	PerComm Policy = iota
	// Explicit gives each thread its own setup-time communicator pinned
	// to a VCI with Comm.SetVCI: a collision-free, balanced placement.
	Explicit
)

// String names the policy as used in figures and flags.
func (p Policy) String() string {
	switch p {
	case PerComm:
		return "per-comm"
	case Explicit:
		return "explicit"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// MaxVCIs is the largest VCI count per proc a world accepts.
const MaxVCIs = 1024

// Validate rejects a VCI count outside [0, MaxVCIs]; 0 and 1 both select
// one shard (the paper's global critical section).
func Validate(n int) error {
	if n < 0 {
		return fmt.Errorf("vci: negative VCI count %d", n)
	}
	if n > MaxVCIs {
		return fmt.Errorf("vci: VCI count %d exceeds %d", n, MaxVCIs)
	}
	return nil
}

// NoHint marks a communicator without an explicit VCI assignment.
const NoHint = -1

// Select returns the VCI index in [0, n) of an operation on a
// communicator with context ctx and explicit VCI hint (NoHint when unset).
// The mapping ignores ranks and tags, so AnySource and AnyTag receives
// always name one VCI, and per-(source, communicator) message order is
// kept inside one shard.
func Select(ctx, hint, n int) int {
	if n <= 1 {
		return 0
	}
	if hint != NoHint {
		if hint < 0 || hint >= n {
			panic(fmt.Sprintf("vci: explicit hint %d out of range [0,%d)", hint, n))
		}
		return hint
	}
	return int(mix(uint64(int64(ctx))) % uint64(n))
}

// mix is a 64-bit finalizer (splitmix64) giving a well-spread deterministic
// hash for small, possibly negative, context values.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
