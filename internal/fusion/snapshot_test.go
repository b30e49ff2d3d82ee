package fusion

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"secureangle/internal/geom"
	"secureangle/internal/wifi"
)

// TestFusionSnapshotRoundTrip pins the Save/Restore codec: a restored
// engine reports the same tracks and keeps the anti-replay window, so
// re-ingesting an already-decided sequence is deduplicated, not
// re-fused.
func TestFusionSnapshotRoundTrip(t *testing.T) {
	clk := newFakeClock()
	capA := &capture{}
	a := newTestEngine(t, Config{APCount: func() int { return 2 }}, clk, capA)
	defer a.Close()

	macs := []wifi.Addr{
		{2, 0, 0, 0, 0, 1},
		{2, 0, 0, 0, 0, 2},
	}
	ap1, ap2 := geom.Point{X: 0, Y: 0}, geom.Point{X: 24, Y: 0}
	target := geom.Point{X: 12, Y: 8}
	for seq := uint64(1); seq <= 3; seq++ {
		for _, mac := range macs {
			a.Ingest(Bearing{AP: "ap1", APPos: ap1, MAC: mac, Seq: seq, Deg: geom.BearingDeg(ap1, target)})
			a.Ingest(Bearing{AP: "ap2", APPos: ap2, MAC: mac, Seq: seq, Deg: geom.BearingDeg(ap2, target)})
			clk.Advance(100 * time.Millisecond)
		}
	}
	if got := len(capA.decisions()); got != 6 {
		t.Fatalf("setup fused %d decisions", got)
	}

	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	capB := &capture{}
	b := newTestEngine(t, Config{APCount: func() int { return 2 }}, clk, capB)
	defer b.Close()
	if err := b.Restore(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}

	for _, mac := range macs {
		ta, oka := a.Track(mac)
		tb, okb := b.Track(mac)
		if !oka || !okb {
			t.Fatalf("track lost in restore: %v / %v", oka, okb)
		}
		if !reflect.DeepEqual(normTrack(ta), normTrack(tb)) {
			t.Errorf("track %v round trip:\n  %+v\nvs %+v", mac, ta, tb)
		}
	}
	if a.ClientCount() != b.ClientCount() {
		t.Errorf("client count %d -> %d", a.ClientCount(), b.ClientCount())
	}

	// The dedup window survived: an already-decided seq is dropped.
	before := b.Stats()
	b.Ingest(Bearing{AP: "ap1", APPos: ap1, MAC: macs[0], Seq: 2, Deg: geom.BearingDeg(ap1, target)})
	b.Ingest(Bearing{AP: "ap2", APPos: ap2, MAC: macs[0], Seq: 2, Deg: geom.BearingDeg(ap2, target)})
	after := b.Stats()
	if after.DupDropped != before.DupDropped+2 || after.Decisions != before.Decisions {
		t.Errorf("restored window did not dedup: %+v -> %+v", before, after)
	}

	// A fresh seq still fuses normally on the restored engine.
	b.Ingest(Bearing{AP: "ap1", APPos: ap1, MAC: macs[0], Seq: 4, Deg: geom.BearingDeg(ap1, target)})
	b.Ingest(Bearing{AP: "ap2", APPos: ap2, MAC: macs[0], Seq: 4, Deg: geom.BearingDeg(ap2, target)})
	if got := len(capB.decisions()); got != 1 {
		t.Errorf("restored engine fused %d decisions for the fresh seq, want 1", got)
	}
	ts, _ := b.Track(macs[0])
	if ts.LastSeq != 4 || ts.Fixes != 4 {
		t.Errorf("restored track did not advance: %+v", ts)
	}

	// Identical state encodes to identical bytes (MAC-ordered records).
	var buf2 bytes.Buffer
	if err := a.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, buf2.Bytes()) {
		t.Error("two saves of unchanged state differ")
	}
}

// normTrack zeroes the monotonic clock reading so DeepEqual compares
// wall instants.
func normTrack(ts TrackState) TrackState {
	ts.Updated = ts.Updated.Round(0)
	return ts
}

func TestFusionRestoreRejectsGarbage(t *testing.T) {
	e := newTestEngine(t, Config{}, nil, nil)
	defer e.Close()
	if err := e.Restore(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage restored without error")
	}
	if err := e.Restore(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty restore succeeded")
	}
}

// TestFusionSnapshotGoldenBytes pins the SAFS bytes of one client fused
// twice from two APs: Save must emit the literal, and the literal must
// restore into an engine that saves it back unchanged.
func TestFusionSnapshotGoldenBytes(t *testing.T) {
	const golden = "53414653000100000001" +
		"020000000001010000000000000002000000000000000340280000000000004020000000000000000000000000000000000000000000000140280000000000004020000000000000000000e8da9af1000000000000000002000000000000000200"
	want, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	a := newTestEngine(t, Config{APCount: func() int { return 2 }}, clk, &capture{})
	defer a.Close()
	mac := wifi.Addr{2, 0, 0, 0, 0, 1}
	ap1, ap2 := geom.Point{X: 0, Y: 0}, geom.Point{X: 24, Y: 0}
	target := geom.Point{X: 12, Y: 8}
	for seq := uint64(1); seq <= 2; seq++ {
		a.Ingest(Bearing{AP: "ap1", APPos: ap1, MAC: mac, Seq: seq, Deg: geom.BearingDeg(ap1, target)})
		a.Ingest(Bearing{AP: "ap2", APPos: ap2, MAC: mac, Seq: seq, Deg: geom.BearingDeg(ap2, target)})
		clk.Advance(100 * time.Millisecond)
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Save emits\n%x\nwant\n%s", buf.Bytes(), golden)
	}

	b := newTestEngine(t, Config{}, newFakeClock(), nil)
	defer b.Close()
	if err := b.Restore(bytes.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	if ts, ok := b.Track(mac); !ok || ts.Pos != target || ts.Fixes != 2 || ts.LastSeq != 2 {
		t.Errorf("restored track = %+v, %v", ts, ok)
	}
	buf.Reset()
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("restore/save round trip gives\n%x\nwant\n%s", buf.Bytes(), golden)
	}
}
