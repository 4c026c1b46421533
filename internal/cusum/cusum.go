// Package cusum implements the nonparametric CUSUM (Sequential Change Point
// Detection) SYN-flood detector of Wang, Zhang and Shin ("Detecting SYN
// Flooding Attacks", INFOCOM 2002), which the paper cites as a complementary
// technique (§1): it watches the *aggregate* difference between TCP SYN and
// FIN/RST counts at a router and flags abrupt changes, but cannot identify
// victims or work network-wide — which is exactly what the Distinct-Count
// Sketch adds. The repository pairs the two: CUSUM as a cheap link-level
// tripwire, the sketch for victim identification.
package cusum

import "fmt"

// Detector is a one-sided nonparametric CUSUM over a normalized statistic
// X_n: it accumulates Y_n = max(0, Y_{n-1} + X_n - Drift) and alarms while
// Y_n > Threshold. Under normal conditions E[X_n] < Drift keeps Y near zero;
// a SYN flood drives X_n up and Y across the threshold within a few
// observation intervals.
type Detector struct {
	// Drift is the CUSUM drift term a (Wang et al. use a value chosen so
	// the normal-condition statistic has negative mean drift).
	Drift float64
	// Threshold is the alarm level h.
	Threshold float64

	y      float64
	alarms int
}

// NewDetector builds a detector; drift must be positive and threshold
// non-negative.
func NewDetector(drift, threshold float64) (*Detector, error) {
	if drift <= 0 {
		return nil, fmt.Errorf("cusum: drift = %v, must be positive", drift)
	}
	if threshold < 0 {
		return nil, fmt.Errorf("cusum: threshold = %v, must be non-negative", threshold)
	}
	return &Detector{Drift: drift, Threshold: threshold}, nil
}

// Observe folds one normalized observation into the statistic and reports
// whether the detector is in alarm afterwards.
func (d *Detector) Observe(x float64) bool {
	d.y += x - d.Drift
	if d.y < 0 {
		d.y = 0
	}
	if d.y > d.Threshold {
		d.alarms++
		return true
	}
	return false
}

// Value returns the current CUSUM statistic Y_n.
func (d *Detector) Value() float64 { return d.y }

// Alarms returns how many observations were in alarm.
func (d *Detector) Alarms() int { return d.alarms }

// Reset clears the statistic (e.g. after mitigation).
func (d *Detector) Reset() { d.y = 0 }

// SYNFIN aggregates per-interval SYN and FIN/RST counts and feeds Wang et
// al.'s normalized difference X_n = (SYN_n - FIN_n) / F̄_n into a CUSUM,
// where F̄_n is an EWMA of the FIN/RST count (their normalization makes the
// statistic traffic-volume independent).
type SYNFIN struct {
	det *Detector
	// alpha is the EWMA factor for the FIN/RST baseline.
	alpha float64

	fbar      float64
	syn, fin  int64
	intervals int
	inAlarm   bool
}

// NewSYNFIN builds the aggregate detector. Wang et al.'s reported operating
// point corresponds to drift ≈ 0.35 and threshold ≈ 1-5 for 10 s intervals;
// alpha is the FIN-baseline smoothing factor (0 < alpha <= 1).
func NewSYNFIN(drift, threshold, alpha float64) (*SYNFIN, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("cusum: alpha = %v, must be in (0,1]", alpha)
	}
	det, err := NewDetector(drift, threshold)
	if err != nil {
		return nil, err
	}
	return &SYNFIN{det: det, alpha: alpha, fbar: 1}, nil
}

// RecordSYN counts one SYN in the current interval.
func (s *SYNFIN) RecordSYN() { s.syn++ }

// RecordFIN counts one FIN or RST in the current interval.
func (s *SYNFIN) RecordFIN() { s.fin++ }

// EndInterval closes the current observation interval, updates the CUSUM,
// and reports whether the detector is in alarm.
func (s *SYNFIN) EndInterval() bool {
	x := float64(s.syn-s.fin) / s.fbar
	// The FIN baseline learns only outside alarm, mirroring the
	// frozen-baseline rule used by the sketch monitor: a sustained flood
	// must not become the new normal.
	if !s.inAlarm {
		s.fbar += s.alpha * (float64(s.fin) - s.fbar)
		if s.fbar < 1 {
			s.fbar = 1
		}
	}
	s.syn, s.fin = 0, 0
	s.intervals++
	s.inAlarm = s.det.Observe(x)
	return s.inAlarm
}

// InAlarm reports the detector state after the last interval.
func (s *SYNFIN) InAlarm() bool { return s.inAlarm }

// Intervals returns how many intervals have been closed.
func (s *SYNFIN) Intervals() int { return s.intervals }

// Statistic returns the current CUSUM value.
func (s *SYNFIN) Statistic() float64 { return s.det.Value() }

// Threshold returns the alarm level the statistic is compared against; it is
// immutable after NewSYNFIN, so reading it is safe from any goroutine.
func (s *SYNFIN) Threshold() float64 { return s.det.Threshold }

// Reset clears both the CUSUM statistic and the interval counters.
func (s *SYNFIN) Reset() {
	s.det.Reset()
	s.syn, s.fin = 0, 0
	s.inAlarm = false
}
