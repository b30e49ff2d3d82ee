package defense

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"sort"
	"testing"
	"time"

	"secureangle/internal/geom"
	"secureangle/internal/wifi"
)

// TestDefenseSnapshotRoundTrip pins the Save/Restore codec: a restored
// engine reports the same threat states — a quarantined client stays
// quarantined with its score, countermeasure action, and evidence
// intact — and the state machine keeps working from where it left off.
func TestDefenseSnapshotRoundTrip(t *testing.T) {
	a, nowA, _, _ := testEngine(t, Config{})
	defer a.Close()

	spoofer := wifi.Addr{2, 0, 0, 0, 0, 1}
	monitored := wifi.Addr{2, 0, 0, 0, 0, 2}
	a.ReportSpoof(SpoofVerdict{
		AP: "ap1", MAC: spoofer, Flagged: true,
		Distance: 0.9, Threshold: 0.12, BearingDeg: 60, HasBearing: true, Stage: "spoofcheck",
	})
	a.ReportFence(FenceVerdict{MAC: monitored, Seq: 1, Pos: geom.Point{X: 30, Y: 5}, Allowed: false})
	a.ReportFence(FenceVerdict{MAC: monitored, Seq: 2, Pos: geom.Point{X: 30, Y: 6}, Allowed: false})
	if st, _ := a.State(spoofer); st.State != StateQuarantine {
		t.Fatalf("setup: spoofer state = %v", st.State)
	}
	if st, _ := a.State(monitored); st.State != StateMonitor {
		t.Fatalf("setup: monitored state = %v", st.State)
	}

	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	b, nowB, emittedB, muB := testEngine(t, Config{})
	defer b.Close()
	*nowB = *nowA
	if err := b.Restore(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	muB.Lock()
	if len(*emittedB) != 0 {
		t.Errorf("restore emitted directives: %+v", *emittedB)
	}
	muB.Unlock()

	wantStates := a.Snapshot()
	gotStates := b.Snapshot()
	sortByMAC(wantStates)
	sortByMAC(gotStates)
	if !reflect.DeepEqual(normThreats(wantStates), normThreats(gotStates)) {
		t.Errorf("snapshot round trip:\n  %+v\nvs %+v", wantStates, gotStates)
	}
	if q := b.Quarantined(); len(q) != 1 || q[0].MAC != spoofer || q[0].Action != ActionQuarantine {
		t.Errorf("restored quarantine = %+v", q)
	}

	// The restored machine still escalates: two more drops push the
	// monitored client over the default QuarantineScore.
	b.ReportFence(FenceVerdict{MAC: monitored, Seq: 3, Pos: geom.Point{X: 30, Y: 7}, Allowed: false})
	b.ReportFence(FenceVerdict{MAC: monitored, Seq: 4, Pos: geom.Point{X: 30, Y: 8}, Allowed: false})
	if st, _ := b.State(monitored); st.State != StateQuarantine {
		t.Errorf("restored engine did not escalate: %+v", st)
	}

	// And still de-escalates: decay past MinQuarantine releases.
	*nowB = nowB.Add(10 * time.Minute)
	b.Sweep(*nowB)
	if q := b.Quarantined(); len(q) != 0 {
		t.Errorf("restored quarantines did not decay: %+v", q)
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

func TestDefenseRestoreRejectsGarbage(t *testing.T) {
	e, _, _, _ := testEngine(t, Config{})
	defer e.Close()
	if err := e.Restore(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage restored without error")
	}
}

func sortByMAC(ts []ClientThreat) {
	sort.Slice(ts, func(i, j int) bool {
		return bytes.Compare(ts[i].MAC[:], ts[j].MAC[:]) < 0
	})
}

// normThreats rounds away monotonic clock readings so DeepEqual
// compares wall instants.
func normThreats(ts []ClientThreat) []ClientThreat {
	out := make([]ClientThreat, len(ts))
	for i, st := range ts {
		st.Since = st.Since.Round(0)
		st.Updated = st.Updated.Round(0)
		out[i] = st
	}
	return out
}

// TestDefenseSnapshotGoldenBytes pins the SADS v2 bytes of a
// quarantined spoofer and a monitored fence violator: Save must emit
// the literal, and the literal must restore into an engine that saves
// it back unchanged.
func TestDefenseSnapshotGoldenBytes(t *testing.T) {
	const golden = "53414453000200000002" +
		"020000000001020140100000000000000000000000000001000000000000000000000000000000003fe00000000000003fd0000000000000404e000000000000010000000000000000000000000000000000000000e8d4a51000000000e8d4a510000003617031000a73706f6f66636865636b0000000000000abc" +
		"02000000000200003fe000000000000000000000000000000000000000000001000000000000000000000000000000000000000000000000000000000000000000403e000000000000401400000000000001000000e8d4a51000000000e8d4a51000000000000000000000000000"
	want, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	a, _, _, _ := testEngine(t, Config{})
	spoofer := wifi.Addr{2, 0, 0, 0, 0, 1}
	monitored := wifi.Addr{2, 0, 0, 0, 0, 2}
	a.ReportSpoof(SpoofVerdict{AP: "ap1", MAC: spoofer, Flagged: true, Distance: 0.5, Threshold: 0.25, BearingDeg: 60, HasBearing: true, Stage: "spoofcheck", Trace: 0xabc})
	a.ReportFence(FenceVerdict{MAC: monitored, Seq: 1, Pos: geom.Point{X: 30, Y: 5}, Allowed: false})
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Save emits\n%x\nwant\n%s", buf.Bytes(), golden)
	}

	b, _, emitted, mu := testEngine(t, Config{})
	if err := b.Restore(bytes.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(*emitted) != 0 {
		t.Errorf("restore emitted directives: %+v", *emitted)
	}
	mu.Unlock()
	if st, ok := b.State(spoofer); !ok || st.State != StateQuarantine || st.LastAP != "ap1" || st.Stage != "spoofcheck" || st.Trace != 0xabc {
		t.Errorf("restored spoofer = %+v, %v", st, ok)
	}
	buf.Reset()
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("restore/save round trip gives\n%x\nwant\n%s", buf.Bytes(), golden)
	}
}
