package journal

// Native fuzzing of the segment decoder and the event codecs. Recovery
// and replication decode whatever bytes survived on disk through one
// frame decoder, then recovery and replay feed every
// journalled payload through these decoders, and a torn write or a
// corrupted segment can hand them arbitrary bytes (the CRC catches
// media rot, not software bugs writing bad frames). Decoders must
// never panic, and whatever they accept must re-encode to a canonical
// form that is a fixed point — the same property the netproto wire
// fuzzer pins.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"secureangle/internal/defense"
	"secureangle/internal/fusion"
	"secureangle/internal/geom"
	"secureangle/internal/locate"
	"secureangle/internal/wifi"
)

// encodeEvent re-encodes a DecodeEvent result by its concrete type.
func encodeEvent(ev any) ([]byte, bool) {
	switch m := ev.(type) {
	case ReportEvent:
		return EncodeReport(m), true
	case defense.SpoofVerdict:
		return EncodeAlert(m), true
	case fusion.Decision:
		return EncodeDecision(m), true
	case defense.Directive:
		return EncodeDirective(m), true
	case AckEvent:
		return EncodeAck(m), true
	case ReleaseEvent:
		return EncodeRelease(m), true
	case SkipEvent:
		return EncodeSkip(m), true
	case EnrollEvent:
		return EncodeEnroll(m), true
	default:
		return nil, false
	}
}

func FuzzEventDecoders(f *testing.F) {
	mac := wifi.Addr{0x66, 0, 0, 0, 0, 5}
	dir := defense.Directive{
		MAC: mac, Action: defense.ActionNullSteer,
		From: defense.StateMonitor, To: defense.StateQuarantine,
		Reporter: "ap1", BearingDeg: 60, HasBearing: true,
		Pos: geom.Point{X: 3, Y: 4}, HasPos: true,
		Score: 5, Distance: 0.9, Threshold: 0.12, Stage: "spoofcheck",
		TTL: 10 * time.Minute,
	}
	seeds := []struct {
		typ  RecordType
		body []byte
	}{
		{RecReport, EncodeReport(ReportEvent{AP: "ap1", APPos: geom.Point{X: 1, Y: 2}, MAC: mac, Seq: 7, BearingDeg: 42.5})},
		{RecAlert, EncodeAlert(defense.SpoofVerdict{AP: "ap1", MAC: mac, Flagged: true, Distance: 0.9, Threshold: 0.12, BearingDeg: 60, HasBearing: true, Stage: "spoofcheck"})},
		{RecDecision, EncodeDecision(fusion.Decision{MAC: mac, Seq: 3, Pos: geom.Point{X: 12, Y: 8}, Decision: locate.Allow, APs: []string{"ap1", "ap2"}})},
		{RecDirective, EncodeDirective(dir)},
		{RecAck, EncodeAck(AckEvent{AP: "ap2", Directive: dir})},
		{RecRelease, EncodeRelease(ReleaseEvent{MAC: mac, Source: "operator"})},
		{RecSkip, EncodeSkip(SkipEvent{End: 9})},
		{RecEnroll, EncodeEnroll(EnrollEvent{Name: "ap1", Digest: []byte{0xde, 0xad}})},
		{RecReport, nil},            // empty payload
		{RecAck, []byte{0xff}},      // bad codec version
		{RecordType(99), []byte{1}}, // unknown record type
	}
	for _, s := range seeds {
		f.Add(uint8(s.typ), s.body)
	}
	f.Fuzz(func(t *testing.T, typ uint8, body []byte) {
		ev, err := DecodeEvent(Record{Type: RecordType(typ), Data: body})
		if err != nil {
			return // malformed input rejected — the contract
		}
		// Round-trip property: an accepted payload re-encodes to a
		// canonical body that decodes to the same value and re-encodes
		// identically (decoders tolerate trailing bytes, so one
		// normalisation pass is allowed before the fixed point).
		enc, ok := encodeEvent(ev)
		if !ok {
			t.Fatalf("decoded unknown event type %T", ev)
		}
		ev2, err := DecodeEvent(Record{Type: RecordType(typ), Data: enc})
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v\ninput: %x\nre-encoded: %x", ev, err, body, enc)
		}
		enc2, ok := encodeEvent(ev2)
		if !ok {
			t.Fatalf("re-decoded unknown event type %T", ev2)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical form is not a fixed point for %T:\n%x\nvs\n%x", ev, enc, enc2)
		}
	})
}

// FuzzJournalSegment writes arbitrary bytes as a journal's only segment
// and runs every reader over it: Open, ReadRecords and a Cursor must
// never panic, every record they deliver must re-encode through the one
// frame encoder to bytes present in the input, and delivered LSNs must
// strictly increase.
func FuzzJournalSegment(f *testing.F) {
	ts := time.Unix(1_700_000_000, 0)
	rec := func(lsn uint64, typ RecordType, data []byte) *Record {
		return &Record{LSN: lsn, Type: typ, TS: ts.Add(time.Duration(lsn) * time.Millisecond), Data: data}
	}
	alert := EncodeAlert(defense.SpoofVerdict{AP: "ap1", MAC: wifi.Addr{0x66, 0, 0, 0, 0, 5}, Flagged: true})
	valid := appendSegHeader(nil, 1)
	for lsn := uint64(1); lsn <= 3; lsn++ {
		valid = appendFrame(valid, rec(lsn, RecAlert, alert))
	}
	skip := appendSegHeader(nil, 1)
	skip = appendFrame(skip, rec(1, RecAlert, alert))
	skip = appendFrame(skip, rec(2, RecSkip, EncodeSkip(SkipEvent{End: 9})))
	skip = appendFrame(skip, rec(10, RecAlert, alert))
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // torn mid-frame
	f.Add(skip)

	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		var prev uint64
		check := func(reader string, r Record) {
			if r.LSN <= prev {
				t.Fatalf("%s delivered LSN %d after %d", reader, r.LSN, prev)
			}
			prev = r.LSN
			if !bytes.Contains(seg, appendFrame(nil, &r)) {
				t.Fatalf("%s delivered LSN %d, which does not re-encode to input bytes", reader, r.LSN)
			}
		}
		_ = ReadRecords(dir, 0, func(r Record) error {
			check("ReadRecords", r)
			return nil
		})

		prev = 0
		c := NewCursor(dir, 0)
		for i := 0; i < 64; i++ {
			recs, err := c.Next(1 << 16)
			if err != nil || len(recs) == 0 {
				break
			}
			for _, r := range recs {
				check("Cursor", r)
			}
		}
		c.Close()

		if j, err := Open(dir, Options{Fsync: FsyncNever}); err == nil {
			j.Close()
		}
	})
}
