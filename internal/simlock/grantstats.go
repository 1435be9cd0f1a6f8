package simlock

import "mpicontend/internal/machine"

// GrantStats accumulates the paper's grant-instant metrics over one lock's
// grant stream: the §4.3 arbitration estimators and the §4.4
// dangling-request count, which the runtime samples at every grant.
//
// The estimators are
//
//	Pc — probability that the same thread reacquires the lock successively
//	     (core level);
//	Ps — probability that the new owner runs on the same socket as the
//	     previous owner (socket level);
//
// each measured for the observed arbitration and for a hypothetical fair
// arbitration over the same waiting sets (X_l = 1/T_l, Y_l = T_{j,l}/ΣT_i).
// Bias* = P_observed / P_fair; a fair lock scores 1.
type GrantStats struct {
	havePrev  bool
	prevID    int
	prevPlace machine.Place

	n           int     // L: contended acquisitions counted
	sumSameCore float64 // Σ X_l (observed)
	sumSameSock float64 // Σ Y_l (observed)
	sumFairCore float64 // Σ 1/T_l
	sumFairSock float64 // Σ T_{j,l}/ΣT_i

	grants      int64 // every grant, contended or not
	danglingSum int64
	danglingMax int64
}

// Observe folds in one grant and the dangling-request count sampled at it.
// The dangling sample counts every grant; the estimators skip grants with
// an empty waiting set (uncontended hand-offs), since arbitration is only
// defined when there is a choice to make, and the first grant only seeds
// the previous owner.
func (s *GrantStats) Observe(gi GrantInfo, dangling int) {
	s.grants++
	d := int64(dangling)
	s.danglingSum += d
	if d > s.danglingMax {
		s.danglingMax = d
	}

	// The candidate set for acquisition l is the new owner plus everyone
	// still waiting when it won.
	if total := len(gi.Waiters) + 1; s.havePrev && total >= 2 {
		s.n++
		sameSock := gi.Place.SameSocket(s.prevPlace)
		if gi.ThreadID == s.prevID {
			s.sumSameCore++
		}
		if sameSock {
			s.sumSameSock++
		}
		s.sumFairCore += 1.0 / float64(total)
		onPrevSocket := 0
		if sameSock {
			onPrevSocket++
		}
		for _, w := range gi.Waiters {
			if w.SameSocket(s.prevPlace) {
				onPrevSocket++
			}
		}
		s.sumFairSock += float64(onPrevSocket) / float64(total)
	}
	s.havePrev = true
	s.prevID = gi.ThreadID
	s.prevPlace = gi.Place
}

// Grants returns the number of grants observed.
func (s *GrantStats) Grants() int64 { return s.grants }

// Samples returns the number of contended acquisitions analysed.
func (s *GrantStats) Samples() int { return s.n }

// Pc returns the observed same-core reacquisition probability.
func (s *GrantStats) Pc() float64 { return ratio(s.sumSameCore, s.n) }

// Ps returns the observed same-socket probability.
func (s *GrantStats) Ps() float64 { return ratio(s.sumSameSock, s.n) }

// FairPc returns the fair-arbitration baseline for Pc.
func (s *GrantStats) FairPc() float64 { return ratio(s.sumFairCore, s.n) }

// FairPs returns the fair-arbitration baseline for Ps.
func (s *GrantStats) FairPs() float64 { return ratio(s.sumFairSock, s.n) }

// BiasCore returns Pc / FairPc (1 means fair).
func (s *GrantStats) BiasCore() float64 {
	if fp := s.FairPc(); fp > 0 {
		return s.Pc() / fp
	}
	return 0
}

// BiasSocket returns Ps / FairPs (1 means fair).
func (s *GrantStats) BiasSocket() float64 {
	if fp := s.FairPs(); fp > 0 {
		return s.Ps() / fp
	}
	return 0
}

// DanglingAvg returns the mean dangling-request count per grant.
func (s *GrantStats) DanglingAvg() float64 {
	if s.grants == 0 {
		return 0
	}
	return float64(s.danglingSum) / float64(s.grants)
}

// DanglingMax returns the largest dangling-request count sampled.
func (s *GrantStats) DanglingMax() int64 { return s.danglingMax }

func ratio(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
