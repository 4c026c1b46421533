package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"

	"dcsketch/internal/dcs"
	"dcsketch/internal/hashing"
	"dcsketch/internal/monitor"
	"dcsketch/internal/wire"
)

// churnLive is how many pairs the churn benchmarks keep in flight per
// connection: each pair is deleted churnLive steps after its insert.
const churnLive = 20_000

// churnFrames is the churn cycle per connection, in 512-record frames. A
// steady-state churn step emits two records (an insert and a delete), so the
// cycle spans churnFrames*256 steps; that exceeds churnLive, so a pair is
// always deleted before the cycle inserts it again and the stream stays
// well-formed however long it repeats.
const churnFrames = 160

// churnPair is the pair inserted at churn step n of stream e: a
// pseudo-random source towards one of 2^24 destinations in 10.0.0.0/8, the
// churn shape the fabric benchmark drives.
func churnPair(e int, n uint64) (src, dst uint32) {
	k := uint64(e)<<40 | n
	return uint32(hashing.Mix64(2*k + 1)), 0x0A000000 | uint32(hashing.Mix64(2*k+2))&0x00FFFFFF
}

// churnFrameBodies encodes stream e's steady-state churn cycle as update
// bodies of recordsPerFrame records each, plus the warm-up
// frames that insert the first churnLive pairs.
func churnFrameBodies(e, recordsPerFrame int) (warmup, cycle [][]byte) {
	cycleSteps := uint64(churnFrames * recordsPerFrame / 2)
	ups := make([]wire.Update, 0, recordsPerFrame)
	flush := func(dst [][]byte) [][]byte {
		dst = append(dst, wire.AppendUpdates(nil, ups))
		ups = ups[:0]
		return dst
	}
	for n := uint64(0); n < churnLive; n++ {
		src, dst := churnPair(e, n)
		ups = append(ups, wire.Update{Src: src, Dst: dst, Delta: 1})
		if len(ups) == recordsPerFrame || n == churnLive-1 {
			warmup = flush(warmup)
		}
	}
	for t := uint64(0); t < cycleSteps; t++ {
		src, dst := churnPair(e, (churnLive+t)%cycleSteps)
		ups = append(ups, wire.Update{Src: src, Dst: dst, Delta: 1})
		src, dst = churnPair(e, t)
		ups = append(ups, wire.Update{Src: src, Dst: dst, Delta: -1})
		if len(ups) == recordsPerFrame {
			cycle = flush(cycle)
		}
	}
	return warmup, cycle
}

// seqSender streams one replay session's churn frames over its own
// connection.
type seqSender struct {
	conn    net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	seq     uint64
	payload []byte
	frame   []byte
	ack     []byte
}

// send writes body as the session's next MsgSeqUpdates frame.
func (s *seqSender) send(body []byte) error {
	s.seq++
	s.payload = append(binary.AppendUvarint(s.payload[:0], s.seq), body...)
	var err error
	if s.frame, err = wire.AppendFrame(s.frame[:0], wire.MsgSeqUpdates, s.payload); err != nil {
		return err
	}
	_, err = s.w.Write(s.frame)
	return err
}

// awaitAck reads replies until the ack for seq arrives.
func (s *seqSender) awaitAck(seq uint64) error {
	for {
		typ, payload, buf, err := wire.ReadFrameInto(s.r, s.ack)
		s.ack = buf
		if err != nil {
			return err
		}
		if typ != wire.MsgSeqAck {
			return fmt.Errorf("reply %v (%q), want a sequence ack", typ, payload)
		}
		acked, err := wire.DecodeSeqAck(payload)
		if err != nil {
			return err
		}
		if acked == seq {
			return nil
		}
	}
}

// BenchmarkServerIngestSeq measures the daemons' ingest path: one monitor
// behind the server lock, at the daemons' defaults, a MsgHello per
// connection, then MsgSeqUpdates frames of 512 delete-heavy churn records.
// Each churn step inserts a fresh pair and deletes the pair inserted 20k
// steps earlier; every connection first inserts its 20k live pairs, untimed.
// Acks are drained concurrently, so the number is pipelined throughput. One
// op is one frame, summed over the connections; updates/s is the per-record
// rate.
func BenchmarkServerIngestSeq(b *testing.B) {
	for _, conns := range []int{1, 2} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) { benchIngestSeq(b, conns) })
	}
}

func benchIngestSeq(b *testing.B, conns int) {
	const recordsPerFrame = 512
	srv, err := New(Config{
		Monitor: monitor.Config{
			Sketch:        dcs.Config{Tables: 3, Buckets: 128, Seed: 1},
			K:             10,
			CheckInterval: 4096,
			MinFrequency:  64,
		},
		ReadTimeout:  -1,
		WriteTimeout: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown()

	senders := make([]*seqSender, conns)
	cycles := make([][][]byte, conns)
	for e := range senders {
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		s := &seqSender{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriterSize(conn, 1<<16)}
		senders[e] = s
		if err := wire.WriteFrame(conn, wire.MsgHello, wire.AppendHello(nil, uint64(e+1))); err != nil {
			b.Fatal(err)
		}
		if typ, payload, err := wire.ReadFrame(s.r); err != nil || typ != wire.MsgHelloAck {
			b.Fatalf("hello reply %v (%q), err %v", typ, payload, err)
		}
		var warmup [][]byte
		warmup, cycles[e] = churnFrameBodies(e, recordsPerFrame)
		for _, body := range warmup {
			if err := s.send(body); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.w.Flush(); err != nil {
			b.Fatal(err)
		}
		if err := s.awaitAck(s.seq); err != nil {
			b.Fatal(err)
		}
	}
	applied := srv.Stats().Updates

	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	errs := make(chan error, 2*conns)
	for e, s := range senders {
		frames := b.N / conns
		if e < b.N%conns {
			frames++
		}
		if frames == 0 {
			continue
		}
		last := s.seq + uint64(frames)
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := s.awaitAck(last); err != nil {
				errs <- err
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				if err := s.send(cycles[e][i%len(cycles[e])]); err != nil {
					errs <- err
					return
				}
			}
			if err := s.w.Flush(); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)*recordsPerFrame/b.Elapsed().Seconds(), "updates/s")
	if got, want := srv.Stats().Updates-applied, uint64(b.N)*recordsPerFrame; got != want {
		b.Fatalf("updates applied = %d, want %d", got, want)
	}
}
