package dcsketch

import (
	"testing"
)

func TestSketchBasicUsage(t *testing.T) {
	sk, err := NewSketch(WithSeed(1), WithBuckets(256))
	if err != nil {
		t.Fatal(err)
	}
	for src := uint32(1); src <= 10; src++ {
		sk.Insert(src, 443)
	}
	for src := uint32(1); src <= 3; src++ {
		sk.Insert(src, 80)
	}
	top := sk.TopK(2)
	if len(top) != 2 || top[0].Dest != 443 || top[0].Count != 10 ||
		top[1].Dest != 80 || top[1].Count != 3 {
		t.Fatalf("TopK = %+v", top)
	}
	if sk.Updates() != 13 {
		t.Fatalf("Updates = %d, want 13", sk.Updates())
	}
	if sk.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive")
	}
}

func TestTrackerDeleteSemantics(t *testing.T) {
	tr, err := NewTracker(WithSeed(2), WithBuckets(256))
	if err != nil {
		t.Fatal(err)
	}
	for src := uint32(1); src <= 20; src++ {
		tr.Insert(src, 443)
	}
	for src := uint32(1); src <= 20; src++ {
		tr.Delete(src, 443)
	}
	for src := uint32(1); src <= 5; src++ {
		tr.Insert(src, 80)
	}
	top := tr.TopK(1)
	if len(top) != 1 || top[0].Dest != 80 || top[0].Count != 5 {
		t.Fatalf("TopK after deletes = %+v, want [{80 5}]", top)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := NewSketch(WithBuckets(1)); err == nil {
		t.Fatal("invalid buckets accepted")
	}
	if _, err := NewTracker(WithLevels(99)); err == nil {
		t.Fatal("invalid levels accepted")
	}
	if _, err := NewSuperspreader(WithSampleTarget(-1)); err == nil {
		t.Fatal("invalid sample target accepted")
	}
}

func TestSketchMergeAcrossOptions(t *testing.T) {
	a, err := NewSketch(WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSketch(WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	a.Insert(1, 10)
	b.Insert(2, 10)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if top := a.TopK(1); len(top) != 1 || top[0].Count != 2 {
		t.Fatalf("merged TopK = %+v", top)
	}
	c, err := NewSketch(WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(c); err == nil {
		t.Fatal("incompatible merge accepted")
	}
	if err := a.Merge(nil); err == nil {
		t.Fatal("nil merge accepted")
	}
}

func TestSketchSerializationRoundTrip(t *testing.T) {
	sk, err := NewSketch(WithSeed(4), WithBuckets(64))
	if err != nil {
		t.Fatal(err)
	}
	for src := uint32(1); src <= 30; src++ {
		sk.Insert(src, 7)
	}
	data, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalSketch(data)
	if err != nil {
		t.Fatal(err)
	}
	if top := got.TopK(1); len(top) != 1 || top[0].Count != 30 {
		t.Fatalf("decoded TopK = %+v", top)
	}
	// The same bytes decode as a Tracker.
	tr, err := UnmarshalTracker(data)
	if err != nil {
		t.Fatal(err)
	}
	if top := tr.TopK(1); len(top) != 1 || top[0].Count != 30 {
		t.Fatalf("tracker-decoded TopK = %+v", top)
	}
	if _, err := UnmarshalSketch([]byte("junk")); err == nil {
		t.Fatal("junk accepted")
	}
	if _, err := UnmarshalTracker(nil); err == nil {
		t.Fatal("nil accepted")
	}
}

func TestTrackerReset(t *testing.T) {
	tr, err := NewTracker(WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	tr.Insert(1, 2)
	tr.Reset()
	if tr.Updates() != 0 || len(tr.TopK(1)) != 0 {
		t.Fatal("Reset must clear the tracker")
	}
}

func TestMonitorEndToEndPackets(t *testing.T) {
	var alerts []Alert
	m, err := NewMonitor(MonitorConfig{
		SketchOptions: []Option{WithSeed(6), WithBuckets(256)},
		CheckInterval: 200,
		MinFrequency:  100,
		OnAlert:       func(a Alert) { alerts = append(alerts, a) },
	})
	if err != nil {
		t.Fatal(err)
	}
	victim, webServer := mustIP(t, "203.0.113.7"), mustIP(t, "198.51.100.1")

	// Legitimate clients complete their handshakes with the web server.
	for i := uint32(0); i < 300; i++ {
		client := 0x0a000000 + i
		m.ProcessPacket(Packet{Time: uint64(i) * 10, Src: client, Dst: webServer, SrcPort: 10000, DstPort: 80, SYN: true})
		m.ProcessPacket(Packet{Time: uint64(i)*10 + 1, Src: webServer, Dst: client, SrcPort: 80, DstPort: 10000, SYN: true, ACK: true})
		m.ProcessPacket(Packet{Time: uint64(i)*10 + 2, Src: client, Dst: webServer, SrcPort: 10000, DstPort: 80, ACK: true})
	}
	// Spoofed flood: SYNs that are never acknowledged.
	for i := uint32(0); i < 600; i++ {
		m.ProcessPacket(Packet{Time: 4000 + uint64(i), Src: 0xc0000000 + i, Dst: victim, SrcPort: 4444, DstPort: 443, SYN: true})
	}

	if len(alerts) == 0 {
		t.Fatal("flood raised no alert")
	}
	if alerts[0].Dest != victim {
		t.Fatalf("alert names %s, want %s", FormatIPv4(alerts[0].Dest), FormatIPv4(victim))
	}
	if m.Alerting(webServer) {
		t.Fatal("completing web traffic must not alert")
	}
	top := m.TopK(1)
	if len(top) != 1 || top[0].Dest != victim {
		t.Fatalf("TopK = %+v, want the victim", top)
	}
	if m.Updates() == 0 || m.HalfOpenStates() == 0 {
		t.Fatalf("bookkeeping: updates=%d halfopen=%d", m.Updates(), m.HalfOpenStates())
	}
}

func TestCollectorAcrossMonitors(t *testing.T) {
	opts := []Option{WithSeed(7), WithBuckets(256)}
	m1, err := NewMonitor(MonitorConfig{SketchOptions: opts})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewMonitor(MonitorConfig{SketchOptions: opts})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 100; i++ {
		m1.Update(1000+i, 9, 1)
		m2.Update(5000+i, 9, 1)
	}
	col, err := NewCollector(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Gather(m1, m2); err != nil {
		t.Fatal(err)
	}
	top := col.TopK(1)
	if len(top) != 1 || top[0].Dest != 9 {
		t.Fatalf("collector TopK = %+v, want dest 9", top)
	}
	// A handful of pairs may collide in all r tables; the estimate is
	// approximate but must be close to the full 200, not either half.
	if top[0].Count < 180 || top[0].Count > 220 {
		t.Fatalf("collector estimate %d, want ~200", top[0].Count)
	}
}

func TestSuperspreaderPublicAPI(t *testing.T) {
	ss, err := NewSuperspreader(WithSeed(8), WithBuckets(256))
	if err != nil {
		t.Fatal(err)
	}
	for d := uint32(0); d < 100; d++ {
		ss.Insert(42, d)
	}
	ss.Insert(7, 1)
	top := ss.TopK(1)
	if len(top) != 1 || top[0].Src != 42 {
		t.Fatalf("TopK = %+v, want scanner 42", top)
	}
	if got := ss.Threshold(50); len(got) != 1 || got[0].Src != 42 {
		t.Fatalf("Threshold(50) = %+v", got)
	}
	for d := uint32(0); d < 100; d++ {
		ss.Delete(42, d)
	}
	if got := ss.Threshold(50); len(got) != 0 {
		t.Fatalf("after deletes Threshold = %+v", got)
	}
}

func TestIPv4Helpers(t *testing.T) {
	ip := mustIP(t, "10.1.2.3")
	if got := FormatIPv4(ip); got != "10.1.2.3" {
		t.Fatalf("FormatIPv4 = %q", got)
	}
	if _, err := ParseIPv4("not an ip"); err == nil {
		t.Fatal("bad IP accepted")
	}
}

func mustIP(t *testing.T, s string) uint32 {
	t.Helper()
	ip, err := ParseIPv4(s)
	if err != nil {
		t.Fatal(err)
	}
	return ip
}
