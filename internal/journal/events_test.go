package journal

import (
	"encoding/hex"
	"testing"
	"time"

	"secureangle/internal/defense"
	"secureangle/internal/fusion"
	"secureangle/internal/geom"
	"secureangle/internal/locate"
	"secureangle/internal/wifi"
)

// TestJournalEventGoldenBytes pins the v2 payload bytes of every record
// type: each encoder must emit its literal exactly, and each literal
// must decode and re-encode to itself.
func TestJournalEventGoldenBytes(t *testing.T) {
	mac := wifi.Addr{0x66, 0, 0, 0, 0, 5}
	dir := defense.Directive{
		MAC: mac, Action: defense.ActionNullSteer,
		From: defense.StateMonitor, To: defense.StateQuarantine,
		Reporter: "ap1", BearingDeg: 60, HasBearing: true,
		Pos: geom.Point{X: 3, Y: 4}, HasPos: true,
		Score: 5, Distance: 0.9, Threshold: 0.12, Stage: "spoofcheck",
		TTL: 10 * time.Minute, Trace: 0xabc,
	}
	const dirHex = "0266000000000502010203404e0000000000004008000000000000401000000000000040140000000000003feccccccccccccd3fbeb851eb851eb80000008bb2c970000003617031000a73706f6f66636865636b0000000000000abc"
	cases := []struct {
		name string
		typ  RecordType
		hex  string
		enc  []byte
	}{
		{"report", RecReport, "0200036170313ff00000000000004000000000000000660000000005000000000000000740454000000000001122334455667788",
			EncodeReport(ReportEvent{AP: "ap1", APPos: geom.Point{X: 1, Y: 2}, MAC: mac, Seq: 7, BearingDeg: 42.5, Trace: 0x1122334455667788})},
		{"alert", RecAlert, "020003617031660000000005033feccccccccccccd3fbeb851eb851eb8404e000000000000000a73706f6f66636865636b0000000000000009",
			EncodeAlert(defense.SpoofVerdict{AP: "ap1", MAC: mac, Flagged: true, Distance: 0.9, Threshold: 0.12, BearingDeg: 60, HasBearing: true, Stage: "spoofcheck", Trace: 9})},
		{"decision", RecDecision, "0266000000000500000000000000034028000000000000402000000000000001010200036170310003617032000000000000f00d",
			EncodeDecision(fusion.Decision{MAC: mac, Seq: 3, Pos: geom.Point{X: 12, Y: 8}, Decision: locate.Drop, Forced: true, APs: []string{"ap1", "ap2"}, Trace: 0xf00d})},
		{"directive", RecDirective, dirHex, EncodeDirective(dir)},
		{"ack", RecAck, "020003617032005c" + dirHex, EncodeAck(AckEvent{AP: "ap2", Directive: dir})},
		{"release", RecRelease, "0266000000000500086f70657261746f72000000000000feed",
			EncodeRelease(ReleaseEvent{MAC: mac, Source: "operator", Trace: 0xfeed})},
		{"skip", RecSkip, "020000000000000009", EncodeSkip(SkipEvent{End: 9})},
		{"enroll", RecEnroll, "0200036170310004deadbeef", EncodeEnroll(EnrollEvent{Name: "ap1", Digest: []byte{0xde, 0xad, 0xbe, 0xef}})},
		{"revoke", RecEnroll, "0200036170310000", EncodeEnroll(EnrollEvent{Name: "ap1"})},
	}
	for _, tc := range cases {
		want, err := hex.DecodeString(tc.hex)
		if err != nil {
			t.Fatalf("%s: bad literal: %v", tc.name, err)
		}
		if string(tc.enc) != string(want) {
			t.Errorf("%s: encoder emits\n%x\nwant\n%s", tc.name, tc.enc, tc.hex)
		}
		ev, err := DecodeEvent(Record{Type: tc.typ, Data: want})
		if err != nil {
			t.Errorf("%s: decode: %v", tc.name, err)
			continue
		}
		if again, _ := encodeEvent(ev); string(again) != string(want) {
			t.Errorf("%s: decode/encode round trip gives\n%x\nwant\n%s", tc.name, again, tc.hex)
		}
	}
}

// TestJournalEventCodecAllocs pins the codec's allocation budget: every
// encoder sizes its buffer once, and a report (the per-ingest record)
// decodes with no allocation beyond its AP name.
func TestJournalEventCodecAllocs(t *testing.T) {
	mac := wifi.Addr{0x66, 0, 0, 0, 0, 5}
	dir := defense.Directive{MAC: mac, Action: defense.ActionNullSteer, Reporter: "ap1", Stage: "spoofcheck", Trace: 0xabc}
	rep := ReportEvent{AP: "ap1", MAC: mac, Seq: 7, BearingDeg: 42.5, Trace: 1}
	encoders := []struct {
		name string
		fn   func() []byte
	}{
		{"report", func() []byte { return EncodeReport(rep) }},
		{"alert", func() []byte {
			return EncodeAlert(defense.SpoofVerdict{AP: "ap1", MAC: mac, Flagged: true, Stage: "spoofcheck", Trace: 9})
		}},
		{"decision", func() []byte {
			return EncodeDecision(fusion.Decision{MAC: mac, APs: []string{"ap1", "ap2"}, Trace: 1})
		}},
		{"directive", func() []byte { return EncodeDirective(dir) }},
		{"ack", func() []byte { return EncodeAck(AckEvent{AP: "ap2", Directive: dir}) }},
		{"release", func() []byte { return EncodeRelease(ReleaseEvent{MAC: mac, Source: "operator", Trace: 1}) }},
		{"skip", func() []byte { return EncodeSkip(SkipEvent{End: 9}) }},
		{"enroll", func() []byte { return EncodeEnroll(EnrollEvent{Name: "ap1", Digest: []byte{1, 2}}) }},
	}
	var sink []byte
	for _, e := range encoders {
		if n := testing.AllocsPerRun(100, func() { sink = e.fn() }); n != 1 {
			t.Errorf("Encode %s: %.0f allocs, want 1", e.name, n)
		}
	}
	payload := EncodeReport(rep)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeReport(payload); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("DecodeReport: %.0f allocs, want <= 1", n)
	}
	_ = sink
}
