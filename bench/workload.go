package main

import (
	"encoding/binary"
	"time"

	"dcsketch/internal/hashing"
	"dcsketch/internal/wire"
	synth "dcsketch/internal/workload"
)

// workload is one traffic mix. Every workload carries floods and the 1 ms
// top-k query probe, so each reports every end-to-end metric; they differ in
// loop type, topology and background load, which is what decides the layer
// that sets their numbers (see README.md for why each was chosen).
type workload struct {
	name string
	// edges is the number of edge exporters, each fed by its own generator
	// goroutine.
	edges int
	// relay routes the edges through a regional relay instead of straight
	// into the global server.
	relay bool
	// closed runs each generator as a closed loop that keeps at most
	// closedSpool batches spooled in its exporter; otherwise the single
	// generator offers churn at rate updates/s on a fixed schedule.
	closed bool
	rate   float64
	// live is the number of churn pairs alive per edge: churn step i
	// inserts pair i and deletes pair i-live, so state stays bounded.
	live int
	// Floods: every floodEvery a fresh victim gets floodSources spoofed
	// sources, retracted by deletes retractAfter after the flood was sent.
	floodSources int
	floodEvery   time.Duration
	retractAfter time.Duration
	// snapshotEvery is the mean cadence of SnapshotState + snapshot.Encode
	// on the global server (see captureDue); 0 takes none.
	snapshotEvery time.Duration
	// baseU and baseD size the Zipf(1.0) base preloaded during set-up
	// (workload.Generate); 0 preloads none.
	baseU, baseD int
	// warmup runs the traffic before the measured window starts.
	warmup time.Duration
}

const (
	queryEvery = time.Millisecond
	// closedSpool is how many batches a closed-loop generator keeps in its
	// exporter's spool: enough to keep the stop-and-wait exporter busy,
	// far below the spool bound, so nothing is ever shed.
	closedSpool = 16
	// floodTail keeps the last flood's retraction inside the run.
	floodTail = 100 * time.Millisecond
)

var workloads = []workload{
	{
		name:         "ingest-saturate",
		edges:        2,
		closed:       true,
		live:         10_000,
		floodSources: 2048,
		floodEvery:   25 * time.Millisecond,
		retractAfter: 60 * time.Millisecond,
		warmup:       time.Second,
	},
	{
		name:         "fabric-detect",
		edges:        1,
		relay:        true,
		rate:         200_000,
		live:         20_000,
		floodSources: 2048,
		floodEvery:   25 * time.Millisecond,
		retractAfter: 60 * time.Millisecond,
		warmup:       time.Second,
	},
	{
		name:          "snapshot-stall",
		edges:         1,
		rate:          200_000,
		live:          20_000,
		floodSources:  8192,
		floodEvery:    25 * time.Millisecond,
		retractAfter:  60 * time.Millisecond,
		snapshotEvery: 100 * time.Millisecond,
		baseU:         12_500,
		baseD:         3_125,
		warmup:        time.Second,
	},
}

// Address plan: churn destinations live in 10.0.0.0/8 and flood victims in
// 198.0.0.0/8, victim j being 198.0.0.0+j, so a victim address names its
// flood and no churn pair can ever land on a victim.
const (
	churnNet  = 0x0A000000
	victimNet = 0xC6000000
	netMask   = 0xFF000000
	// batchSize is the number of updates per exported batch.
	batchSize = 512
	// churnSteps is the number of churn steps per steady-state batch: each
	// step inserts one pair and deletes one.
	churnSteps = batchSize / 2
)

// inputs generates a workload's update stream from the seed alone: every
// pair is a pure function of (seed, edge, step) or (seed, flood, source),
// so the generator keeps O(1) state and the oracle can regenerate the live
// set at the end instead of remembering it.
type inputs struct {
	keys  []uint64          // per edge: destination hash key
	srcs  []*hashing.Perm32 // per edge: churn step -> source address
	flood *hashing.Perm32   // (flood, source index) -> spoofed source
}

func newInputs(seed uint64, edges int) *inputs {
	rng := hashing.NewSplitMix64(seed)
	in := &inputs{flood: hashing.NewPerm32(rng.Next())}
	for e := 0; e < edges; e++ {
		in.keys = append(in.keys, rng.Next())
		in.srcs = append(in.srcs, hashing.NewPerm32(rng.Next()))
	}
	return in
}

// churnPair is the pair inserted at churn step i of edge e. Sources come
// from a permutation, so the pairs of one edge are distinct.
func (in *inputs) churnPair(e int, i uint64) (src, dst uint32) {
	return in.srcs[e].Apply(uint32(i)), churnNet | uint32(hashing.Mix64(in.keys[e]+i))&^netMask
}

// appendChurn appends churn steps [from, to) of edge e: the insert of pair
// i and, once the live window is full, the delete of pair i-live.
func (in *inputs) appendChurn(dst []wire.Update, e int, from, to, live uint64) []wire.Update {
	for i := from; i < to; i++ {
		s, d := in.churnPair(e, i)
		dst = append(dst, wire.Update{Src: s, Dst: d, Delta: 1})
		if i >= live {
			s, d = in.churnPair(e, i-live)
			dst = append(dst, wire.Update{Src: s, Dst: d, Delta: -1})
		}
	}
	return dst
}

// appendFlood appends sources [from, to) of flood j, as inserts or as the
// deletes that retract them. (j, source) packs into the 32-bit permutation
// input, so a flood has at most 8192 sources.
func (in *inputs) appendFlood(dst []wire.Update, j, from, to int, insert bool) []wire.Update {
	victim := victimNet | uint32(j)
	for s := from; s < to; s++ {
		src := in.flood.Apply(uint32(j)<<13 | uint32(s))
		if insert {
			dst = append(dst, wire.Update{Src: src, Dst: victim, Delta: 1})
		} else {
			dst = append(dst, wire.Update{Src: src, Dst: victim, Delta: -1})
		}
	}
	return dst
}

// victimFlood reports the flood whose victim dest is.
func victimFlood(dest uint32) (int, bool) {
	if dest&netMask != victimNet {
		return 0, false
	}
	return int(dest &^ netMask), true
}

// baseUpdates generates the Zipf base, or nil when the workload has none.
func baseUpdates(w workload, seed uint64) ([]wire.Update, error) {
	if w.baseU == 0 {
		return nil, nil
	}
	wl, err := synth.Generate(synth.Config{DistinctPairs: int64(w.baseU), Destinations: w.baseD, Skew: 1.0, Seed: seed})
	if err != nil {
		return nil, err
	}
	out := make([]wire.Update, 0, w.baseU)
	for _, u := range wl.Updates() {
		out = append(out, wire.Update{Src: u.Src, Dst: u.Dst, Delta: int64(u.Delta)})
	}
	return out, nil
}

// digestSteps is how many steady-state churn steps per edge the input
// digest covers beyond the live-set prefill.
const digestSteps = 1 << 14

// inputDigest fingerprints the generated stream: the base, each edge's
// prefill plus its first digestSteps churn steps, and the first eight
// floods. It must be identical across commits for a given seed. The value
// is cut to 48 bits so it prints exactly as a JSON number.
func inputDigest(w workload, in *inputs, base []wire.Update) uint64 {
	// FNV-1a over each update's (src, dst, delta) in little-endian.
	h := uint64(14695981039346656037)
	var rec [16]byte
	write := func(ups []wire.Update) {
		for _, u := range ups {
			binary.LittleEndian.PutUint32(rec[0:], u.Src)
			binary.LittleEndian.PutUint32(rec[4:], u.Dst)
			binary.LittleEndian.PutUint64(rec[8:], uint64(u.Delta))
			for _, b := range rec {
				h = (h ^ uint64(b)) * 1099511628211
			}
		}
	}
	write(base)
	var buf []wire.Update
	live := uint64(w.live)
	for e := range in.srcs {
		for i := uint64(0); i < live+digestSteps; i += churnSteps {
			buf = in.appendChurn(buf[:0], e, i, min(i+churnSteps, live+digestSteps), live)
			write(buf)
		}
	}
	for j := 0; j < 8; j++ {
		buf = in.appendFlood(buf[:0], j, 0, w.floodSources, true)
		write(buf)
	}
	return h >> 16
}
