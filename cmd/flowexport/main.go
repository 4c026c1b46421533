// Command flowexport is an edge exporter: it replays a packet trace through
// the TCP half-open state machine and streams the resulting flow updates to
// a ddosmond daemon in batches, then optionally queries the daemon's top-k.
//
// Delivery rides the fault-tolerant exporter (internal/export): updates are
// spooled in memory and shipped by a background loop that reconnects with
// jittered backoff and replays unacknowledged batches exactly once, so a
// daemon restart or a flaky link mid-replay loses nothing (until the spool
// bound forces drop-oldest shedding, which is reported).
//
// Usage:
//
//	tracegen -o attack.trace
//	ddosmond -listen 127.0.0.1:7171 &
//	flowexport -connect 127.0.0.1:7171 -query 10 attack.trace
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dcsketch/internal/export"
	"dcsketch/internal/server"
	"dcsketch/internal/stream"
	"dcsketch/internal/tcpflow"
	"dcsketch/internal/trace"
	"dcsketch/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "flowexport:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("flowexport", flag.ContinueOnError)
	var (
		connect = fs.String("connect", "127.0.0.1:7171", "ddosmond address")
		format  = fs.String("format", "binary", "trace format: binary, text or pcap")
		batch   = fs.Int("batch", 512, "updates per wire batch")
		query   = fs.Int("query", 0, "after replay, query the daemon's top-k (0 disables)")
		timeout = fs.Duration("timeout", 10*time.Second, "per-attempt connection timeout")
		drain   = fs.Duration("drain", 0, "budget for flushing the spool after replay (0 = 4x timeout)")
		spool   = fs.Int("spool", 4096, "spooled batches kept while the daemon is unreachable")
		session = fs.Uint64("session", 0, "replay session id (0 = random); reuse it only to resume replaying the same trace with the same -batch after a crash, or the daemon acks the first batches as already applied")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("usage: flowexport [flags] <trace-file>")
	}
	if *batch < 1 {
		return fmt.Errorf("batch = %d, must be >= 1", *batch)
	}
	if *drain <= 0 {
		*drain = 4 * *timeout
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(*format, f)
	if err != nil {
		return err
	}

	exp, err := export.New(export.Config{
		Addr:           *connect,
		DialTimeout:    *timeout,
		AttemptTimeout: *timeout,
		SpoolBatches:   *spool,
		SessionID:      *session,
	})
	if err != nil {
		return err
	}
	defer exp.Close()

	conv := tcpflow.New()
	pending := make([]wire.Update, 0, *batch)
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		if err := exp.Export(pending); err != nil {
			return err
		}
		pending = pending[:0]
		return nil
	}
	sink := stream.SinkFunc(func(src, dst uint32, delta int64) {
		pending = append(pending, wire.Update{Src: src, Dst: dst, Delta: delta})
	})

	packets := 0
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		conv.Process(rec, sink)
		packets++
		if len(pending) >= *batch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if err := exp.Drain(*drain); err != nil {
		return err
	}
	st := exp.Stats()
	fmt.Fprintf(os.Stderr, "flowexport: %d packets -> %d flow updates exported (%d batches", packets, st.UpdatesAcked, st.BatchesAcked)
	if st.Reconnects > 0 || st.Retransmits > 0 {
		fmt.Fprintf(os.Stderr, ", %d reconnects, %d retransmits", st.Reconnects, st.Retransmits)
	}
	if st.UpdatesDropped > 0 {
		fmt.Fprintf(os.Stderr, ", %d updates SHED", st.UpdatesDropped)
	}
	fmt.Fprintln(os.Stderr, ")")

	if *query > 0 {
		client, err := server.Dial(*connect, *timeout)
		if err != nil {
			return err
		}
		defer client.Close()
		top, err := client.TopK(*query)
		if err != nil {
			return err
		}
		fmt.Printf("daemon top-%d:\n", *query)
		for i, e := range top {
			fmt.Printf("  %2d. %-15s ~%d distinct sources\n", i+1, trace.FormatIPv4(e.Dest), e.F)
		}
	}
	return nil
}
