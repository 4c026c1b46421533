package dcs

import (
	"math"
	"sort"

	"dcsketch/internal/hashing"
)

// This file implements an extension beyond the paper: a Horvitz-Thompson
// corrected top-k estimator. The paper's BaseTopk treats the distinct sample
// as complete above the stopping level and scales all sample frequencies by
// one factor 2^b. In reality the boundary level is partially recovered
// (singleton collisions lose a few percent of its pairs), which biases
// estimates down, and levels just below the boundary still carry usable —
// if less recoverable — samples that BaseTopk discards.
//
// TopKCorrected instead weights every recovered pair by the inverse of its
// inclusion probability: Pr[pair lands on level l] = 2^-(l+1), times an
// estimated per-level recovery probability p_l. The level population n_l
// needed for p_l is estimated by linear counting over the second-level
// buckets (Whang et al.: n ≈ -s·ln(empty/s)), and levels whose estimated
// recovery drops below a floor are excluded (their weights would be noise
// amplifiers).
//
// Measured outcome (see EXPERIMENTS.md): at the default (r, s) the
// correction is a wash — the extra boundary-level samples are offset by the
// noise of the estimated recovery probabilities — so TopK remains the
// default estimator and TopKCorrected is kept as a documented negative
// result and a building block for larger-r configurations where it wins.

// minRecovery is the inclusion floor: levels whose estimated singleton
// recovery probability falls below it are not mined.
const minRecovery = 0.5

// levelScan summarizes one first-level bucket for the corrected estimator.
type levelScan struct {
	singles  []SampledPair
	estPairs float64 // linear-counting estimate of the level population
	recovery float64 // estimated probability a level pair is recovered
}

// scanLevel collects verified singletons and occupancy statistics for one
// level.
func (s *Sketch) scanLevel(level int) levelScan {
	var sc levelScan
	seen := make(map[uint64]struct{})
	totalEmpty := 0
	for j := 0; j < s.cfg.Tables; j++ {
		for b := 0; b < s.cfg.Buckets; b++ {
			if s.bucketTotal(level, j, b) == 0 {
				// Total count zero: empty for occupancy purposes.
				// (Residual zero-total collision artifacts are
				// possible only for corrupted streams.)
				totalEmpty++
				continue
			}
			key, count, ok := s.DecodeBucket(level, j, b)
			if !ok {
				continue
			}
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			sc.singles = append(sc.singles, SampledPair{Key: key, Count: count})
		}
	}
	sBuckets := float64(s.cfg.Buckets)
	avgEmpty := float64(totalEmpty) / float64(s.cfg.Tables)
	if avgEmpty < 1 {
		avgEmpty = 1 // saturated: clamp so the log stays finite
	}
	sc.estPairs = -sBuckets * math.Log(avgEmpty/sBuckets)
	// Probability a given pair is a singleton in one table with n-1
	// other pairs present: (1-1/s)^(n-1); recovery across r independent
	// tables is the complement of missing in all of them.
	n := sc.estPairs
	if n < 1 {
		n = 1
	}
	missOne := 1 - math.Pow(1-1/sBuckets, n-1)
	sc.recovery = 1 - math.Pow(missOne, float64(s.cfg.Tables))
	return sc
}

// TopKCorrected returns the approximate top-k destinations using the
// Horvitz-Thompson estimator described above. It is slower than TopK (it
// scans more levels) but tightens the frequency estimates; use it for
// periodic reporting rather than per-update tracking.
func (s *Sketch) TopKCorrected(k int) []Estimate {
	if k <= 0 {
		return nil
	}
	// A pair is included iff its (single, random) level is one of the
	// mined levels AND it was recovered there, so its inclusion
	// probability is π = Σ_{mined l} Pr[level=l]·p_l and the HT estimate
	// is count_v / π.
	counts := make(map[uint32]int64)
	inclusion := 0.0
	for l := s.cfg.Levels - 1; l >= 0; l-- {
		sc := s.scanLevel(l)
		if sc.recovery < minRecovery {
			// Deeper levels are denser and recover even worse.
			break
		}
		// Pr[level = l] is 2^-(l+1), except the clamped top level
		// which absorbs the tail: 2^-l.
		levelProb := math.Pow(2, -float64(l+1))
		if l == s.cfg.Levels-1 {
			levelProb = math.Pow(2, -float64(l))
		}
		inclusion += levelProb * sc.recovery
		for _, p := range sc.singles {
			counts[hashing.PairDest(p.Key)]++
		}
	}
	if inclusion <= 0 {
		return nil
	}
	ests := make([]Estimate, 0, len(counts))
	for dest, c := range counts {
		ests = append(ests, Estimate{Dest: dest, F: int64(math.Round(float64(c) / inclusion))})
	}
	sort.Slice(ests, func(i, j int) bool {
		if ests[i].F != ests[j].F {
			return ests[i].F > ests[j].F
		}
		return ests[i].Dest < ests[j].Dest
	})
	if k < len(ests) {
		ests = ests[:k]
	}
	return ests
}
