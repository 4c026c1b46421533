package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dcsketch/internal/export"
	"dcsketch/internal/snapshot"
	"dcsketch/internal/wire"
)

// runConfig is one run of one workload.
type runConfig struct {
	w      workload
	seed   uint64
	window time.Duration
	// traced splits the window into an untraced and a traced half, then
	// runs the per-layer replay, and reports per-layer metrics instead of
	// end-to-end ones.
	traced bool
	// setups is how many times set-up runs; setup_s is their median and
	// the last fabric carries the traffic.
	setups  int
	spanDir string
}

// result is what one run reports.
type result struct {
	workload  string
	metrics   map[string]float64
	digest    uint64
	attempted int
	failed    int
	// failures breaks failed down by operation, oracle mismatches aside.
	failures string
	// correct is the oracle's verdict; problems lists its mismatches.
	correct  bool
	problems []string
	spanPath string
}

// edgeState is everything the generator remembers about one edge.
type edgeState struct {
	step    uint64 // churn steps emitted
	seq     uint64 // batches exported: the exporter's last sequence number
	updates uint64 // updates exported
}

// drive is one run in progress.
type drive struct {
	rc     runConfig
	w      workload
	in     *inputs
	clk    *clock
	fab    *fabric
	edges  []edgeState
	floods int // floods scheduled before the run ends
	tr     *tracer
	// pace paces this goroutine: the set-up drain, captures and samples.
	pace    *pacer
	samples []sample
	// Snapshot loop tallies over the measured window.
	captures, captureErrs int
	snapBuf               []byte
}

// goldenFrac is the i-th point of the golden-ratio sequence: a fraction in
// [0, 1) that covers the interval evenly for any run of consecutive i.
func goldenFrac(i int) float64 {
	const golden = 0.6180339887498949
	f := float64(i) * golden
	return f - float64(int(f))
}

// floodDue is when flood j is due. Each flood is offset from the query
// probe's 1 ms grid by a different fraction of a millisecond, so the wait
// for the next query averages out instead of depending on where one fixed
// phase falls.
func (d *drive) floodDue(j int) time.Duration {
	return d.clk.gen + time.Duration(j+1)*d.w.floodEvery + time.Duration(goldenFrac(j+1)*float64(queryEvery))
}

// captureDue is when state capture c is due. Captures are offset from the
// flood grid by a different fraction of the flood interval each, so they
// stall floods at every phase, and about as many floods meet a capture as
// its share of the time, instead of the same floods every time.
func (d *drive) captureDue(c int) time.Duration {
	return d.clk.gen + time.Duration(c)*d.w.snapshotEvery + time.Duration(goldenFrac(c)*float64(d.w.floodEvery))
}

// execute runs one workload end to end: set-up, warm-up, the measured
// window(s), the oracle and, on a traced run, the per-layer replay.
func execute(rc runConfig) (*result, error) {
	w := rc.w
	in := newInputs(rc.seed, w.edges)
	base, err := baseUpdates(w, rc.seed)
	if err != nil {
		return nil, err
	}
	res := &result{workload: w.name, metrics: map[string]float64{}, digest: inputDigest(w, in, base)}
	d := &drive{rc: rc, w: w, in: in, clk: &clock{t0: time.Now()}}
	if d.pace, err = newPacer(d.clk); err != nil {
		return nil, err
	}
	defer d.pace.close()
	defer func() {
		if d.fab != nil {
			d.fab.close()
		}
	}()
	if rc.traced {
		d.tr = newTracer(ownerMain)
		d.tr.open() // windowSpan
		d.tr.open() // replaySpan
	}

	var setupTimes []float64
	for i := 0; i < max(rc.setups, 1); i++ {
		if d.fab != nil {
			d.fab.close()
			d.fab = nil
		}
		// Every set-up after the first starts from a collected heap whose
		// freed sketches it reuses, so all but the first pay the same
		// (warm) memory cost.
		runtime.GC()
		start := d.clk.now()
		if err := d.setUp(base); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, (d.clk.now() - start).Seconds())
	}
	base = nil // the oracle regenerates it; keep it out of the window's heap

	// A traced run splits its time into an untraced and a traced half, so
	// it takes as long as an untraced one.
	clk := d.clk
	clk.window = rc.window
	if rc.traced {
		clk.window /= 2
	}
	clk.gen = clk.now()
	clk.warm = clk.gen + w.warmup
	clk.ticks = max(1, int(clk.window/time.Second))
	clk.tick = clk.window / time.Duration(clk.ticks)
	clk.end = clk.warm + clk.window
	clk.traceFrom = clk.end
	if rc.traced {
		clk.end += clk.window
	}
	d.floods = int((clk.end - floodTail - clk.gen) / w.floodEvery)

	gens, probe, err := d.traffic()
	if err != nil {
		return nil, err
	}
	if err := d.fab.drain(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}

	// Tally attempts and failures over the measured window.
	res.attempted = d.captures + probe.attempted + 1 // +1: the oracle
	var exportErrs, missed int
	for _, g := range gens {
		res.attempted += g.batches
		exportErrs += g.errs
	}
	// samples[0..ticks] bound the measured window's ticks; a traced run
	// adds the end of its traced half.
	window := d.samples[:clk.ticks+1]
	calm := calmTicks(window)
	var detect []float64
	for j := 0; j < d.floods; j++ {
		due, sent, seen := d.floodDue(j), gens[0].sentAt[j], probe.seen[j]
		if d.tr != nil && clk.traced(due) && seen > 0 {
			d.tr.close(d.tr.open(), "detect", windowSpan, sent, seen, uint64(j), due)
		}
		if !clk.measured(due) {
			continue
		}
		res.attempted++
		if seen == 0 {
			missed++ // retracted before any reply showed its victim
			continue
		}
		if calm[clk.tickOf(due)] {
			detect = append(detect, float64(seen-sent)/1e6)
		}
	}

	res.failed = exportErrs + probe.errs + missed + d.captureErrs
	res.failures = fmt.Sprintf("failed exports %d, queries %d, floods never seen %d, captures %d",
		exportErrs, probe.errs, missed, d.captureErrs)

	if !rc.traced {
		var applied uint64
		var seconds float64
		for i, ok := range calm {
			if ok {
				t := window[i+1].delta(window[i])
				applied += t.Updates
				seconds += t.Seconds
			}
		}
		res.metrics["setup_s"] = percentile(setupTimes, 0.5)
		res.metrics["ingest_updates_per_s"] = float64(applied) / seconds
		res.metrics["detect_p50_ms"] = percentile(detect, 0.50)
		res.metrics["detect_p95_ms"] = percentile(detect, 0.95)
		res.metrics["heap_live_mb"] = float64(heapLiveBytes()) / 1e6
	}

	problems, ref, live, err := d.oracle()
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	res.problems = problems
	res.failed += len(problems)
	res.correct = len(problems) == 0
	if !rc.traced {
		return res, nil
	}

	c := counters{
		Untraced: window[clk.ticks].delta(window[0]),
		Traced:   d.samples[clk.ticks+1].delta(window[clk.ticks]),
	}
	c.Recall, c.RelError = accuracy(ref, live)
	c.RelaySpoolMax = probe.relaySpoolMax
	d.fab.addLedgers(&c)
	replayStart := clk.now()
	if err := d.replay(live, &c); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	d.tr.close(windowSpan, "window", 0, clk.traceFrom, clk.end, 0, 0)
	d.tr.close(replaySpan, "replay", 0, replayStart, clk.now(), 0, 0)

	// Close before reading the edges' transport spans: Close joins the
	// exporters' delivery goroutines that record them.
	d.fab.close()
	spans := d.tr.spans
	for _, g := range gens {
		spans = append(spans, g.tr.spans...)
		c.SpoolSum += g.spoolSum
		c.SpoolSamples += g.spoolN
	}
	spans = append(spans, probe.tr.spans...)
	for _, a := range d.fab.acks {
		for _, s := range a.tr.spans {
			if clk.traced(time.Duration(s.Start)) {
				spans = append(spans, s)
			}
		}
	}
	res.metrics = layerMetrics(spans, c)
	doc := &spanFile{Workload: w.name, Seed: rc.seed, Spans: spans, Counters: c}
	if res.spanPath, err = writeSpans(rc.spanDir, doc); err != nil {
		return nil, fmt.Errorf("span file: %w", err)
	}
	return res, nil
}

// setUp builds a fabric and prefills it with the base and then each edge's
// churn live set: everything up to the first timed update. It returns once
// the global tier has applied every prefilled update.
func (d *drive) setUp(base []wire.Update) (err error) {
	if d.fab, err = newFabric(d.w, d.rc.seed, d.clk, d.rc.traced); err != nil {
		return err
	}
	d.edges = make([]edgeState, d.w.edges)
	gens := make([]*gen, d.w.edges)
	for e := range gens {
		gens[e] = &gen{d: d, e: e, exp: d.fab.edges[e], st: &d.edges[e]}
	}
	for off := 0; off < len(base); off += batchSize {
		if err := gens[0].export(base[off:min(off+batchSize, len(base))], 0, 0); err != nil {
			return err
		}
	}
	live := uint64(d.w.live)
	var total uint64
	for _, g := range gens {
		for g.st.step < live {
			to := min(g.st.step+batchSize, live)
			g.buf = d.in.appendChurn(g.buf[:0], g.e, g.st.step, to, live)
			g.st.step = to
			if err := g.export(g.buf, 0, 0); err != nil {
				return err
			}
		}
		total += g.st.updates
	}
	deadline := d.clk.now() + drainTimeout
	for d.fab.global.Stats().Updates < total {
		if d.clk.now() > deadline {
			return errors.New("prefill not applied")
		}
		if _, err := d.pace.until(d.clk.now() + 100*time.Microsecond); err != nil {
			return err
		}
	}
	return nil
}

// traffic runs the generators, the query probe and (on this goroutine) the
// snapshot loop and window samples until the run ends, then joins them.
func (d *drive) traffic() ([]*gen, *prober, error) {
	gens := make([]*gen, d.w.edges)
	for e := range gens {
		gens[e] = &gen{d: d, e: e, exp: d.fab.edges[e], st: &d.edges[e]}
		if d.tr != nil {
			gens[e].tr = newTracer(ownerGen + uint64(e))
		}
	}
	gens[0].sentAt = make([]time.Duration, d.floods)
	gens[0].startAt = make([]time.Duration, d.floods)
	probe := &prober{d: d, seen: make([]time.Duration, d.floods)}
	if d.tr != nil {
		probe.tr = newTracer(ownerQuery)
	}
	var err error
	if probe.pace, err = newPacer(d.clk); err != nil {
		return nil, nil, err
	}
	defer probe.pace.close()
	if !d.w.closed {
		if gens[0].pace, err = newPacer(d.clk); err != nil {
			return nil, nil, err
		}
		defer gens[0].pace.close()
	}

	errs := make([]error, len(gens)+2)
	var wg sync.WaitGroup
	for e, g := range gens {
		wg.Add(1)
		go func(e int, g *gen) {
			defer wg.Done()
			errs[e] = g.loop(e == 0)
		}(e, g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[len(gens)] = probe.loop()
	}()
	errs[len(gens)+1] = d.mainLoop()
	wg.Wait()
	return gens, probe, errors.Join(errs...)
}

// mainLoop takes the window samples, one at every tick boundary of the
// measured window, and, when the workload has them, the scheduled state
// captures.
func (d *drive) mainLoop() error {
	clk := d.clk
	var marks []time.Duration
	for i := 0; i <= clk.ticks; i++ {
		marks = append(marks, clk.warm+time.Duration(i)*clk.tick)
	}
	if d.rc.traced {
		marks = append(marks, clk.end)
	}
	for c := 1; len(d.samples) < len(marks); {
		next := marks[len(d.samples)]
		if d.w.snapshotEvery > 0 && d.captureDue(c) < next {
			if _, err := d.pace.until(d.captureDue(c)); err != nil {
				return err
			}
			d.capture(c, d.captureDue(c))
			c++
			continue
		}
		if _, err := d.pace.until(next); err != nil {
			return err
		}
		d.samples = append(d.samples, takeSample(clk, d.fab))
	}
	return nil
}

// capture is the ddosmond snapshot loop's work, minus the disk: capture
// the global server's recovery state and encode it in memory.
func (d *drive) capture(c int, due time.Duration) {
	clk := d.clk
	start := clk.now()
	st, err := d.fab.global.SnapshotState()
	mid := clk.now()
	if err == nil {
		d.snapBuf = snapshot.Encode(d.snapBuf[:0], st)
	}
	end := clk.now()
	if clk.measured(due) {
		d.captures++
		if err != nil {
			d.captureErrs++
		}
	}
	if d.tr != nil && clk.traced(due) {
		id := d.tr.open()
		d.tr.add("server.snapshot_capture", id, start, mid, uint64(c))
		if err == nil {
			d.tr.add("snapshot.encode", id, mid, end, uint64(c))
		}
		d.tr.close(id, "snapshot", windowSpan, start, end, uint64(c), due)
	}
}

// gen drives one edge exporter. On an open-loop workload it offers churn
// batches on a fixed schedule; on a closed-loop one it exports as fast as
// the spool frees up. Edge 0 also carries the floods.
type gen struct {
	d    *drive
	e    int
	exp  *export.Exporter
	st   *edgeState
	buf  []wire.Update
	tr   *tracer
	pace *pacer // set on the open-loop generator
	// batches counts Export calls started in the measured window; errs
	// counts those that failed.
	batches, errs int
	// spoolSum/spoolN sample the spool depth after each traced Export.
	spoolSum, spoolN int64
	// sentAt[j] is when flood j's detection latency is timed from, and
	// startAt[j] when the generator started sending it. A flood is retracted
	// retractAfter after its start, not its due time, so one the generator
	// sent late still stays live that long instead of meeting its own
	// retraction in the spool.
	sentAt, startAt []time.Duration
}

func (g *gen) loop(floods bool) error {
	if g.d.w.closed {
		return g.closedLoop(floods)
	}
	return g.openLoop()
}

func (g *gen) openLoop() error {
	d, clk := g.d, g.d.clk
	every := time.Duration(float64(time.Second) * batchSize / d.w.rate)
	j, r := 0, 0 // floods sent, floods retracted
	for k := 0; ; {
		next, kind := clk.gen+time.Duration(k)*every, 0
		if j < d.floods && d.floodDue(j) < next {
			next, kind = d.floodDue(j), 1
		}
		if r < j && g.startAt[r]+d.w.retractAfter < next {
			next, kind = g.startAt[r]+d.w.retractAfter, 2
		}
		if next >= clk.end {
			break
		}
		slept, err := g.pace.until(next)
		if err != nil {
			return err
		}
		switch kind {
		case 0:
			err = g.churn(next)
			k++
		case 1:
			err = g.flood(j, true, next, slept)
			j++
		case 2:
			err = g.flood(r, false, next, slept)
			r++
		}
		if err != nil {
			return err
		}
	}
	return g.retractFrom(r, j)
}

func (g *gen) closedLoop(floods bool) error {
	d, clk := g.d, g.d.clk
	j, r := 0, 0
	if !floods {
		j = d.floods // this edge carries churn only
		r = j
	}
	for {
		now := clk.now()
		if now >= clk.end {
			break
		}
		var err error
		switch {
		case j < d.floods && now >= d.floodDue(j):
			err = g.flood(j, true, d.floodDue(j), false)
			j++
		case r < j && now >= g.startAt[r]+d.w.retractAfter:
			err = g.flood(r, false, g.startAt[r]+d.w.retractAfter, false)
			r++
		default:
			err = g.churn(0)
		}
		if err != nil {
			return err
		}
	}
	return g.retractFrom(r, j)
}

// retractFrom retracts floods [r, j) at the end of the run, so the live set
// the oracle regenerates holds churn and base only.
func (g *gen) retractFrom(r, j int) error {
	for ; r < j; r++ {
		if err := g.flood(r, false, 0, false); err != nil {
			return err
		}
	}
	return nil
}

// churn exports the next steady-state churn batch; due is its scheduled
// time on an open loop and 0 on a closed one.
func (g *gen) churn(due time.Duration) error {
	live := uint64(g.d.w.live)
	g.buf = g.d.in.appendChurn(g.buf[:0], g.e, g.st.step, g.st.step+churnSteps, live)
	g.st.step += churnSteps
	return g.export(g.buf, windowSpan, due)
}

// flood exports flood j's sources, or the deletes that retract them; slept
// says whether the generator was idle until due.
func (g *gen) flood(j int, insert bool, due time.Duration, slept bool) error {
	clk, n := g.d.clk, g.d.w.floodSources
	name := "flood"
	if !insert {
		name = "retract"
	}
	parent := uint64(windowSpan)
	traced := g.tr != nil && clk.traced(due)
	if traced {
		parent = g.tr.open()
	}
	start := clk.now()
	if insert && j < len(g.sentAt) {
		g.startAt[j] = start
		// Detection is timed from the flood's due time when the generator
		// was behind, and from its actual send when it slept until due, so
		// the wake-up's own lateness is not charged to the fabric.
		g.sentAt[j] = due
		if slept {
			g.sentAt[j] = start
		}
	}
	for s := 0; s < n; s += batchSize {
		g.buf = g.d.in.appendFlood(g.buf[:0], j, s, min(s+batchSize, n), insert)
		if err := g.export(g.buf, parent, 0); err != nil {
			return err
		}
	}
	if traced {
		g.tr.close(parent, name, windowSpan, start, clk.now(), uint64(j), due)
	}
	return nil
}

// export hands one batch to the edge exporter. parent 0 marks the set-up
// prefill, which is neither counted nor traced. A closed loop first waits
// for the spool to drop below closedSpool, so nothing is ever shed. The
// prefill does not wait: at most a few hundred batches, it fits in the
// exporter's default spool (1024 batches), and polling for room would add
// timer wake-ups to setup_s.
func (g *gen) export(batch []wire.Update, parent uint64, due time.Duration) error {
	clk := g.d.clk
	if g.d.w.closed && parent != 0 {
		if err := waitRoom(g.exp); err != nil {
			return err
		}
	}
	start := clk.now()
	err := g.exp.Export(batch)
	end := clk.now()
	measured := parent != 0 && clk.measured(start)
	if measured {
		g.batches++
	}
	if err != nil {
		if measured {
			g.errs++
		}
		return err
	}
	g.st.seq++
	g.st.updates += uint64(len(batch))
	if g.tr != nil && parent != 0 && clk.traced(start) {
		g.tr.close(g.tr.open(), "export", parent, start, end, batchRef(g.e, g.st.seq), due)
		g.spoolSum += int64(g.exp.Stats().SpoolDepth)
		g.spoolN++
	}
	return nil
}

// waitRoom blocks until exp holds fewer than closedSpool batches. Its
// coarse sleeps cost nothing: closedSpool batches outlast them.
func waitRoom(exp *export.Exporter) error {
	deadline := time.Now().Add(drainTimeout)
	for exp.Stats().SpoolDepth >= closedSpool {
		if time.Now().After(deadline) {
			return errors.New("exporter spool did not drain")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// prober is the query probe: one connection to the global tier sending
// TopK(10) every queryEvery. It records when each flood's victim first
// shows up in a reply.
type prober struct {
	d               *drive
	tr              *tracer
	pace            *pacer
	attempted, errs int
	// seen[j] is when a reply first contained flood j's victim; 0 = never.
	seen []time.Duration
	// relaySpoolMax is the deepest relay upstream spool sampled after each
	// traced query.
	relaySpoolMax int
}

func (p *prober) loop() error {
	clk := p.d.clk
	for q := 1; ; q++ {
		due := clk.gen + time.Duration(q)*queryEvery
		if due >= clk.end {
			return nil
		}
		if _, err := p.pace.until(due); err != nil {
			return err
		}
		start := clk.now()
		entries, err := p.d.fab.query.TopK(10)
		end := clk.now()
		if clk.measured(due) {
			p.attempted++
			if err != nil {
				p.errs++
			}
		}
		if p.tr != nil && clk.traced(due) {
			p.tr.close(p.tr.open(), "client.topk", windowSpan, start, end, uint64(q), due)
			if r := p.d.fab.relay; r != nil {
				p.relaySpoolMax = max(p.relaySpoolMax, r.Stats().Export.SpoolDepth)
			}
		}
		for _, e := range entries {
			if j, ok := victimFlood(e.Dest); ok && j < len(p.seen) && p.seen[j] == 0 && end >= p.d.floodDue(j) {
				p.seen[j] = end
			}
		}
	}
}
