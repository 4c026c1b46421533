package main

import (
	"bytes"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is sorted in place. NaN-free: an empty
// sample yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// quartiles returns the first quartile, median and third quartile of xs by
// the rule Python's statistics.quantiles(xs, n=4) uses (its default
// "exclusive" method), which is how the repeat spreads are judged. xs needs
// at least two values; it is sorted in place.
func quartiles(xs []float64) (q1, med, q3 float64) {
	slices.Sort(xs)
	n := len(xs)
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		out[i-1] = (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// sample is a process-wide reading taken at a window boundary.
type sample struct {
	at         time.Duration
	updates    uint64 // applied at the global tier
	cpu        int64  // process user+system CPU, ns
	allocBytes uint64
	gcCycles   uint64
	mutexNs    int64
	// steal and cpuTicks are the host's cumulative stolen and total CPU
	// time (see hostCPU).
	steal, cpuTicks int64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sync/mutex/wait/total:seconds",
}

func takeSample(clk *clock, f *fabric) sample {
	s := sample{at: clk.now(), updates: f.global.Stats().Updates}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = ru.Utime.Nano() + ru.Stime.Nano()
	}
	ms := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s.allocBytes = ms[0].Value.Uint64()
	s.gcCycles = ms[1].Value.Uint64()
	s.mutexNs = int64(ms[2].Value.Float64() * 1e9)
	s.steal, s.cpuTicks = hostCPU()
	return s
}

// hostCPU reads the VM-wide CPU time from the first line of /proc/stat, in
// clock ticks: the time the host stole from the VM's CPUs while they had
// work, and the total of user, nice, system, idle, iowait, irq, softirq and
// steal. Both are 0 where the file cannot be read.
func hostCPU() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(b, []byte{'\n'})
	fields := strings.Fields(string(line))
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// calmTicks marks the ticks between consecutive samples in which the host
// stole no more CPU time from the VM than in the median tick. On a shared
// host, steal comes in bursts lasting seconds to minutes that slow every
// number at once; taking the end-to-end metrics over the calm ticks keeps
// at least half of the window and drops those bursts. Without steal every
// tick is calm.
func calmTicks(s []sample) []bool {
	steal := make([]float64, len(s)-1)
	for i := range steal {
		steal[i] = float64(s[i+1].steal - s[i].steal)
	}
	med := percentile(slices.Clone(steal), 0.5)
	calm := make([]bool, len(steal))
	for i, v := range steal {
		calm[i] = v <= med
	}
	return calm
}

// delta is the window between two samples.
func (s sample) delta(from sample) windowCounters {
	return windowCounters{
		Seconds:    (s.at - from.at).Seconds(),
		Updates:    s.updates - from.updates,
		CPUNs:      s.cpu - from.cpu,
		AllocBytes: s.allocBytes - from.allocBytes,
		GCCycles:   s.gcCycles - from.gcCycles,
		MutexNs:    s.mutexNs - from.mutexNs,
		StealTicks: s.steal - from.steal,
		CPUTicks:   s.cpuTicks - from.cpuTicks,
	}
}

// heapLiveBytes forces a collection and reads the live heap it left.
func heapLiveBytes() uint64 {
	runtime.GC()
	ms := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(ms)
	return ms[0].Value.Uint64()
}
