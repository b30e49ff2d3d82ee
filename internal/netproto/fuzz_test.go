package netproto

// Native fuzzing of the wire decoder: every inbound frame — from any
// peer — funnels through Unmarshal, so it
// must never panic, never over-allocate on a hostile length field, and
// whatever it accepts must re-encode to a form it accepts again. CI
// runs a time-boxed `go test -fuzz` smoke on top of the seeded corpus.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"
	"time"

	"secureangle/internal/defense"
	"secureangle/internal/fusion"
	"secureangle/internal/geom"
	"secureangle/internal/journal"
	"secureangle/internal/wifi"
)

// fuzzSeeds returns marshalled bodies covering every frame kind —
// Hello, Welcome, Ping, Report, ReportBatch, Alert, Query, Tracks,
// Threats, Directive, Segment, SegmentAck — plus malformed inputs.
func fuzzSeeds() [][]byte {
	mac := wifi.Addr{0x66, 0, 0, 0, 0, 5}
	dir := defense.Directive{
		MAC: mac, Action: defense.ActionNullSteer,
		From: defense.StateMonitor, To: defense.StateQuarantine,
		Reporter: "ap1", BearingDeg: 60, HasBearing: true,
		Pos: geom.Point{X: 3, Y: 4}, HasPos: true,
		Score: 5, Distance: 0.9, Threshold: 0.12, Stage: "spoofcheck",
		TTL: 10 * time.Minute,
	}
	return [][]byte{
		MarshalHello(Hello{Name: "ap1", Pos: geom.Point{X: 1, Y: 2}}), // tokenless
		MarshalSegment(Segment{Partition: 1, PartCount: 2, LeaderLSN: 9, Records: []journal.Record{
			{Type: journal.RecAlert, LSN: 9, TS: time.Unix(7, 0), Data: []byte{1, 2, 3}}}}), // replication
		MarshalHello(Hello{Name: "", Pos: geom.Point{}}), // observer
		MarshalHello(Hello{Name: "ap1", Pos: geom.Point{X: 1, Y: 2},
			Token: "deadbeefdeadbeefdeadbeefdeadbeef"}), // enrolled
		MarshalSegmentAck(SegmentAck{Positions: []SegmentPos{{Partition: 1, LSN: 9}}}), // subscribe
		MarshalWelcome(Welcome{Status: WelcomeAuthRejected}),                           // rejection
		MarshalReport(Report{APName: "ap1", MAC: mac, BearingDeg: 42.5, SeqNo: 7}),     // sig-less report
		MarshalReportBatch([]Report{{APName: "a", MAC: mac, SeqNo: 1}, {APName: "b"}}), // batch
		MarshalWelcome(Welcome{}),
		MarshalPing(),
		MarshalAlert(Alert{APName: "ap1", MAC: mac, Distance: 0.9, Trace: 7}),
		MarshalAlert(Alert{APName: "ap1", MAC: mac, Stage: "spoofcheck"}),
		MarshalAlert(Alert{APName: "ap1", MAC: mac, Threshold: 0.12, HasBearing: true}),
		MarshalQuery(Query{All: true, ID: 9}),                    // KindTracks
		MarshalQuery(Query{MAC: mac, ID: 10, Kind: KindThreats}), // KindThreats
		MarshalTracks(Tracks{ID: 3, More: true, States: []fusion.TrackState{{MAC: mac, Fixes: 2, Updated: time.Unix(5, 0)}}}),
		MarshalThreats(Threats{ID: 4, States: []defense.ClientThreat{{MAC: mac, State: defense.StateQuarantine, LastAP: "ap1", Since: time.Unix(5, 0), Updated: time.Unix(6, 0)}}}),
		MarshalDirective(Directive{Directive: dir}),
		MarshalDirective(Directive{Directive: dir, Ack: true}),
		{},                // empty body
		{0xff},            // unknown type
		{TypeHello, 0xff}, // truncated
	}
}

// remarshal re-encodes a decoded message (the re-decode target).
func remarshal(msg any) ([]byte, bool) {
	switch m := msg.(type) {
	case Hello:
		return MarshalHello(m), true
	case Welcome:
		return MarshalWelcome(m), true
	case Ping:
		return MarshalPing(), true
	case Report:
		return MarshalReport(m), true
	case ReportBatch:
		return MarshalReportBatch(m), true
	case Alert:
		return MarshalAlert(m), true
	case Query:
		return MarshalQuery(m), true
	case Tracks:
		return MarshalTracks(m), true
	case Threats:
		return MarshalThreats(m), true
	case Directive:
		return MarshalDirective(m), true
	case Segment:
		return MarshalSegment(m), true
	case SegmentAck:
		return MarshalSegmentAck(m), true
	default:
		return nil, false
	}
}

func FuzzUnmarshal(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		msg, err := Unmarshal(body)
		if err != nil {
			return // malformed input rejected — the contract
		}
		// Round-trip property: whatever decodes must re-encode to a body
		// that decodes again, and that second decode must re-encode to
		// the SAME bytes — a fixed point after one normalisation. Bytes
		// are the comparison surface because struct equality is wrong
		// for NaN floats and for time.Time wall/monotonic split.
		enc, ok := remarshal(msg)
		if !ok {
			t.Fatalf("decoded unknown message type %T", msg)
		}
		msg2, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v\ninput: %x\nre-encoded: %x", msg, err, body, enc)
		}
		if reflect.TypeOf(msg2) != reflect.TypeOf(msg) {
			t.Fatalf("re-decode changed type: %T -> %T", msg, msg2)
		}
		enc2, ok := remarshal(msg2)
		if !ok {
			t.Fatalf("re-decoded unknown message type %T", msg2)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("normalised form is not a fixed point for %T:\n%x\nvs\n%x", msg, enc, enc2)
		}
	})
}

// shortReader returns data in reads of 1 + sizes[i] bytes, cycling
// through sizes: the arbitrary short reads a TCP stream can deliver.
type shortReader struct {
	data  []byte
	sizes []byte
	i     int
}

func (r *shortReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := 1
	if len(r.sizes) > 0 {
		n += int(r.sizes[r.i%len(r.sizes)])
		r.i++
	}
	n = min(n, len(p), len(r.data))
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// FuzzFrameReader feeds a stream of concatenated frames through a
// session's small buffered reader over arbitrary short reads: it must
// return the same bodies, and the same errors (ErrTooLarge, truncation),
// as framing read straight off the bytes.
func FuzzFrameReader(f *testing.F) {
	var stream []byte
	for _, seed := range fuzzSeeds() {
		stream = appendFrame(stream, seed)
	}
	hostile := binary.BigEndian.AppendUint32(appendFrame(nil, MarshalPing()), MaxMessageSize+1)
	f.Add(stream, []byte{0, 6, 2, 40})
	f.Add(stream[:len(stream)-3], []byte{15})                    // truncated body
	f.Add(stream[:len(stream)-len(fuzzSeeds()[0])-2], []byte{1}) // truncated length prefix
	f.Add(hostile, []byte{3})                                    // ErrTooLarge
	f.Add(appendFrame(nil, make([]byte, 3*4096)), []byte{})      // body larger than the buffer
	f.Fuzz(func(t *testing.T, data, sizes []byte) {
		want := bytes.NewReader(data)
		got := bufio.NewReaderSize(&shortReader{data: data, sizes: sizes}, 16)
		var buf []byte
		for i := 0; ; i++ {
			wb, werr := ReadMessage(want)
			gb, gerr := ReadMessageBuf(got, buf)
			if gerr != werr {
				t.Fatalf("frame %d: buffered reader error %v, want %v", i, gerr, werr)
			}
			if !bytes.Equal(gb, wb) {
				t.Fatalf("frame %d: buffered reader body %x, want %x", i, gb, wb)
			}
			if werr != nil {
				return
			}
			buf = gb
		}
	})
}
