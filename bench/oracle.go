package main

import (
	"bytes"
	"fmt"
	"math"

	"dcsketch/internal/dcs"
	"dcsketch/internal/exact"
	"dcsketch/internal/hashing"
	"dcsketch/internal/tdcs"
	"dcsketch/internal/wire"
)

// oracle checks the drained fabric against a single-box reference. The
// delivery ledgers must balance at every hop, and the global TopK(10) must
// be byte-identical to a tdcs sketch fed only the pairs still live: every
// delete cancels its insert exactly and the sketch is linear, so that
// replay is cheap however long the run was. It returns the mismatches, the
// reference sketch and the live set.
func (d *drive) oracle() ([]string, *tdcs.Sketch, []wire.Update, error) {
	var problems []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}

	// Ledgers. The generator sends no zero deltas, so every acked update is
	// an applied one.
	var acked uint64
	for e, exp := range d.fab.edges {
		st := exp.Stats()
		check(st.BatchesDropped == 0, "edge %d dropped %d batches", e, st.BatchesDropped)
		check(st.Retransmits == 0, "edge %d retransmitted %d batches", e, st.Retransmits)
		check(st.UpdatesEnqueued == d.edges[e].updates, "edge %d enqueued %d updates, generator sent %d", e, st.UpdatesEnqueued, d.edges[e].updates)
		check(st.UpdatesAcked == st.UpdatesEnqueued, "edge %d acked %d of %d updates", e, st.UpdatesAcked, st.UpdatesEnqueued)
		acked += st.UpdatesAcked
	}
	if d.fab.relay != nil {
		rs := d.fab.relay.Stats()
		check(rs.Server.Updates == acked, "relay applied %d updates, edges acked %d", rs.Server.Updates, acked)
		check(rs.Export.BatchesDropped == 0, "relay dropped %d upstream batches", rs.Export.BatchesDropped)
		check(rs.Export.UpdatesAcked == rs.Server.Updates, "relay forwarded %d of %d updates", rs.Export.UpdatesAcked, rs.Server.Updates)
		acked = rs.Export.UpdatesAcked
	}
	gs := d.fab.global.Stats()
	check(gs.Updates == acked, "global applied %d updates, its senders acked %d", gs.Updates, acked)
	check(gs.DuplicateBatches == 0 && gs.ProtocolErrors == 0, "global saw %d duplicates, %d protocol errors", gs.DuplicateBatches, gs.ProtocolErrors)

	// The live set: the base plus each edge's last `live` churn pairs (every
	// flood was retracted before the run ended).
	live, err := baseUpdates(d.w, d.rc.seed)
	if err != nil {
		return nil, nil, nil, err
	}
	for e, st := range d.edges {
		for i := st.step - min(st.step, uint64(d.w.live)); i < st.step; i++ {
			s, t := d.in.churnPair(e, i)
			live = append(live, wire.Update{Src: s, Dst: t, Delta: 1})
		}
	}

	ref, err := tdcs.New(daemonMonitor().Sketch)
	if err != nil {
		return nil, nil, nil, err
	}
	var keys []dcs.KeyDelta
	for off := 0; off < len(live); off += batchSize {
		keys = appendKeys(keys[:0], live[off:min(off+batchSize, len(live))])
		ref.UpdateBatch(keys)
	}
	refTop := entries(ref.TopK(10))
	want := wire.AppendTopKReply(nil, refTop)
	check(len(refTop) == 10, "reference top-k has %d entries", len(refTop))

	got, err := d.fab.query.TopK(10)
	if err != nil {
		check(false, "final global query: %v", err)
	} else {
		check(bytes.Equal(wire.AppendTopKReply(nil, got), want), "global top-10 %v differs from single-box %v", got, refTop)
	}
	if d.fab.relay != nil {
		rt := wire.AppendTopKReply(nil, entries(d.fab.relay.TopK(10)))
		check(bytes.Equal(rt, want), "relay top-10 differs from single-box")
	}
	return problems, ref, live, nil
}

func appendKeys(dst []dcs.KeyDelta, ups []wire.Update) []dcs.KeyDelta {
	for _, u := range ups {
		dst = append(dst, dcs.KeyDelta{Key: hashing.PairKey(u.Src, u.Dst), Delta: u.Delta})
	}
	return dst
}

func entries(ests []dcs.Estimate) []wire.TopKEntry {
	out := make([]wire.TopKEntry, len(ests))
	for i, e := range ests {
		out[i] = wire.TopKEntry{Dest: e.Dest, F: e.F}
	}
	return out
}

// accuracy scores the reference's top-10 against the exact distinct-source
// counts of the live set: recall is the share of its entries whose true
// count reaches the true 10th-largest (ties count as hits), and the relative
// error is the mean |estimate - truth| / truth over its entries.
func accuracy(ref *tdcs.Sketch, live []wire.Update) (recall, relErr float64) {
	ex := exact.New()
	for _, u := range live {
		ex.Update(u.Src, u.Dst, u.Delta)
	}
	truth := ex.TopK(10)
	top := entries(ref.TopK(10))
	if len(truth) == 0 || len(top) == 0 {
		return 0, 0
	}
	tenth := truth[len(truth)-1].Priority
	for _, e := range top {
		f := ex.F(e.Dest)
		if f >= tenth {
			recall++
		}
		if f > 0 {
			relErr += math.Abs(float64(e.F-f)) / float64(f)
		} else {
			relErr++
		}
	}
	return recall / float64(len(top)), relErr / float64(len(top))
}
