package dcsketch_test

// End-to-end integration tests spanning the whole pipeline: synthetic pcap
// capture -> TCP state machine -> monitor/alerts -> wire protocol ->
// collector merging. These are the "does the system actually catch the
// attack" tests, complementing the per-package unit suites.

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"dcsketch"
	"dcsketch/internal/export"
	"dcsketch/internal/monitor"
	"dcsketch/internal/server"
	"dcsketch/internal/trace"
	"dcsketch/internal/wire"
)

// buildPcapCapture synthesizes a pcap capture containing legitimate
// handshakes to goodServer and a spoofed flood against victim.
func buildPcapCapture(t *testing.T, goodServer, victim uint32, legit, zombies int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewPcapWriter(&buf)
	now := uint64(0)
	for i := 0; i < legit || i < zombies; i++ {
		now += 50
		if i < legit {
			client := uint32(0x0a000000 + i)
			sport := uint16(10000 + i)
			for _, r := range []trace.Record{
				{Time: now, Src: client, Dst: goodServer, SrcPort: sport, DstPort: 443, Flags: trace.FlagSYN},
				{Time: now + 1, Src: goodServer, Dst: client, SrcPort: 443, DstPort: sport, Flags: trace.FlagSYN | trace.FlagACK},
				{Time: now + 2, Src: client, Dst: goodServer, SrcPort: sport, DstPort: 443, Flags: trace.FlagACK},
			} {
				if err := w.Write(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		if i < zombies {
			if err := w.Write(trace.Record{
				Time: now + 3, Src: uint32(0xc6000000 + i), Dst: victim,
				SrcPort: 4444, DstPort: 80, Flags: trace.FlagSYN,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPcapToMonitorEndToEnd(t *testing.T) {
	goodServer := uint32(0xc6336401)
	victim := uint32(0xcb007107)
	capture := buildPcapCapture(t, goodServer, victim, 600, 900)

	var alerts []dcsketch.Alert
	mon, err := dcsketch.NewMonitor(dcsketch.MonitorConfig{
		SketchOptions: []dcsketch.Option{dcsketch.WithSeed(11), dcsketch.WithBuckets(256)},
		CheckInterval: 500,
		MinFrequency:  300,
		OnAlert:       func(a dcsketch.Alert) { alerts = append(alerts, a) },
		CUSUM:         &dcsketch.CUSUMConfig{IntervalPackets: 500},
	})
	if err != nil {
		t.Fatal(err)
	}

	r := trace.NewPcapReader(bytes.NewReader(capture))
	packets := 0
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		mon.ProcessPacket(dcsketch.Packet{
			Time: rec.Time, Src: rec.Src, Dst: rec.Dst,
			SrcPort: rec.SrcPort, DstPort: rec.DstPort,
			SYN: rec.Flags&trace.FlagSYN != 0,
			ACK: rec.Flags&trace.FlagACK != 0,
			RST: rec.Flags&trace.FlagRST != 0,
			FIN: rec.Flags&trace.FlagFIN != 0,
		})
		packets++
	}
	if packets != 600*3+900 {
		t.Fatalf("replayed %d packets", packets)
	}
	if len(alerts) == 0 || alerts[0].Dest != victim {
		t.Fatalf("alerts = %+v, want the victim flagged", alerts)
	}
	if mon.Alerting(goodServer) {
		t.Fatal("legitimate server alerting")
	}
	if !mon.CUSUMAlarm() {
		t.Fatal("aggregate SYN/FIN tripwire did not fire during the flood")
	}
	top := mon.TopK(1)
	if len(top) != 1 || top[0].Dest != victim {
		t.Fatalf("TopK = %+v", top)
	}
	if top[0].Count < 700 || top[0].Count > 1100 {
		t.Fatalf("victim estimate %d, want ~900", top[0].Count)
	}
}

func TestEdgeToCollectorOverWire(t *testing.T) {
	// Two edges observe halves of an attack and stream their updates over
	// the wire protocol, each in its own replay session, to a central
	// daemon whose view holds the full count. (Merging edge sketches by
	// linearity in process is examples/distributed's subject.)
	srv, err := server.New(server.Config{
		Monitor: monitor.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	victim := uint32(0xcb007107)
	for _, edgeNet := range []uint32{0xc0000000, 0xd0000000} {
		exp, err := export.New(export.Config{Addr: addr.String()})
		if err != nil {
			t.Fatal(err)
		}
		defer exp.Close()
		batch := make([]wire.Update, 0, 400)
		for i := uint32(0); i < 400; i++ {
			batch = append(batch, wire.Update{Src: edgeNet + i, Dst: victim, Delta: 1})
		}
		if err := exp.Export(batch); err != nil {
			t.Fatal(err)
		}
		if err := exp.Drain(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	c, err := server.Dial(addr.String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	top, err := c.TopK(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top[0].Dest != victim {
		t.Fatalf("daemon TopK = %+v", top)
	}
	if top[0].F < 640 || top[0].F > 960 {
		t.Fatalf("daemon estimate %d, want ~800 (both edges)", top[0].F)
	}
}
