package netproto

import (
	"bytes"
	"context"
	"encoding/hex"
	"net"
	"testing"
	"time"

	"secureangle/internal/defense"
	"secureangle/internal/fusion"
	"secureangle/internal/geom"
	"secureangle/internal/journal"
	"secureangle/internal/locate"
	"secureangle/internal/signature"
	"secureangle/internal/wifi"
)

// helloOnWire returns the Hello body the agent handshake writes for h,
// answering it with the given Welcome body.
func helloOnWire(t *testing.T, h Hello, welcome []byte) []byte {
	t.Helper()
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	done := make(chan error, 1)
	go func() {
		_, err := NewAgentContext(context.Background(), client, h)
		done <- err
	}()
	body, err := ReadMessage(server)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMessage(server, welcome); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return body
}

// TestV5GoldenBytes pins the wire bytes of every frame type: each
// encoder must emit its literal exactly, and each literal must decode
// and re-encode to itself.
func TestV5GoldenBytes(t *testing.T) {
	mac := wifi.Addr{0x66, 0, 0, 0, 0, 5}
	sig := &signature.Signature{AnglesDeg: []float64{0, 90}, P: []float64{0.6, 0.8}}
	dir := defense.Directive{
		MAC: mac, Action: defense.ActionNullSteer,
		From: defense.StateMonitor, To: defense.StateQuarantine,
		Reporter: "ap1", BearingDeg: 60, HasBearing: true,
		Pos: geom.Point{X: 3, Y: 4}, HasPos: true,
		Score: 5, Distance: 0.9, Threshold: 0.12, Stage: "spoofcheck",
		TTL: 10 * time.Minute, Trace: 0xabc,
	}
	const welcomeOK = "05000500"
	welcome, _ := hex.DecodeString(welcomeOK)
	cases := []struct {
		name string
		hex  string
		// enc produces the frame from its encoder; nil for Welcome,
		// whose bytes the decode round trip pins.
		enc func() []byte
	}{
		{"hello", "0100036170313ff0000000000000400000000000000000050003746f6b", func() []byte {
			return helloOnWire(t, Hello{Name: "ap1", Pos: geom.Point{X: 1, Y: 2}, Token: "tok"}, welcome)
		}},
		{"welcome-ok", welcomeOK, nil},
		{"welcome-rejected", "05000501", nil},
		{"ping", "06", MarshalPing},
		{"report", "02000361703166000000000540454000000000000000000000000007000000001122334455667788", func() []byte {
			return MarshalReport(Report{APName: "ap1", MAC: mac, BearingDeg: 42.5, SeqNo: 7, Trace: 0x1122334455667788})
		}},
		{"report-signed", "020003617031660000000005404540000000000000000000000000070000002853414e470000000200000000000000003fe333333333333340568000000000003fe999999999999a0000000000000009", func() []byte {
			return MarshalReport(Report{APName: "ap1", MAC: mac, BearingDeg: 42.5, SeqNo: 7, Sig: sig, Trace: 9})
		}},
		{"report-batch", "0400000002000361703166000000000540240000000000000000000000000001000000000003617032660000000005403400000000000000000000000000010000002853414e470000000200000000000000003fe333333333333340568000000000003fe999999999999a00000000000000010000000000000002", func() []byte {
			return MarshalReportBatch([]Report{
				{APName: "ap1", MAC: mac, BearingDeg: 10, SeqNo: 1, Trace: 1},
				{APName: "ap2", MAC: mac, BearingDeg: 20, SeqNo: 1, Sig: sig, Trace: 2},
			})
		}},
		{"alert", "0300036170316600000000053feccccccccccccd000a73706f6f66636865636b3fe0000000000000404e000000000000010000000000000abc", func() []byte {
			return MarshalAlert(Alert{APName: "ap1", MAC: mac, Distance: 0.9, Stage: "spoofcheck",
				Threshold: 0.5, BearingDeg: 60, HasBearing: true, Trace: 0xabc})
		}},
		{"query-tracks", "070100000009000000000000", func() []byte { return MarshalQuery(Query{All: true, ID: 9}) }},
		{"query-threats", "07000000000a66000000000501", func() []byte { return MarshalQuery(Query{MAC: mac, ID: 10, Kind: KindThreats}) }},
		{"directive", "0905020102660000000005404e0000000000004008000000000000401000000000000040140000000000003feccccccccccccd3fbeb851eb851eb80000008bb2c970000003617031000a73706f6f66636865636b0000000000000abc", func() []byte { return MarshalDirective(Directive{Directive: dir}) }},
		{"directive-ack", "0907020102660000000005404e0000000000004008000000000000401000000000000040140000000000003feccccccccccccd3fbeb851eb851eb80000008bb2c970000003617031000a73706f6f66636865636b0000000000000abc", func() []byte { return MarshalDirective(Directive{Directive: dir, Ack: true}) }},
		{"tracks", "080100000003000000016600000000053ff000000000000040000000000000003fe0000000000000bfe000000000000000000000000000020000000000000004000000012a05f20001", func() []byte {
			return MarshalTracks(Tracks{ID: 3, More: true, States: []fusion.TrackState{{
				MAC: mac, Pos: geom.Point{X: 1, Y: 2}, Vel: geom.Point{X: 0.5, Y: -0.5},
				Fixes: 2, LastSeq: 4, Updated: time.Unix(5, 0), Decision: locate.Drop,
			}}})
		}},
		{"threats", "0a000000000400000001660000000005020240140000000000000000000000000003000000000000000000000000000000003feccccccccccccd3fe0000000000000404e000000000000010000000000000000000000000000000000000000012a05f2000000000165a0bc000003617031000a73706f6f66636865636b", func() []byte {
			return MarshalThreats(Threats{ID: 4, States: []defense.ClientThreat{{
				MAC: mac, State: defense.StateQuarantine, Action: defense.ActionNullSteer,
				Score: 5, Flags: 3, LastDistance: 0.9, LastThreshold: 0.5,
				BearingDeg: 60, HasBearing: true, LastAP: "ap1", Stage: "spoofcheck",
				Since: time.Unix(5, 0), Updated: time.Unix(6, 0),
			}}})
		}},
		{"segment", "0b0001000200000000000000090000000102000000000000000900000001a13b860000000003010203", func() []byte {
			return MarshalSegment(Segment{Partition: 1, PartCount: 2, LeaderLSN: 9, Records: []journal.Record{
				{Type: journal.RecAlert, LSN: 9, TS: time.Unix(7, 0), Data: []byte{1, 2, 3}},
			}})
		}},
		{"segment-ack", "0c000100010000000000000009", func() []byte {
			return MarshalSegmentAck(SegmentAck{Positions: []SegmentPos{{Partition: 1, LSN: 9}}})
		}},
	}
	for _, tc := range cases {
		want, err := hex.DecodeString(tc.hex)
		if err != nil {
			t.Fatalf("%s: bad literal: %v", tc.name, err)
		}
		if tc.enc != nil {
			if got := tc.enc(); string(got) != string(want) {
				t.Errorf("%s: encoder emits\n%x\nwant\n%x", tc.name, got, want)
			}
		}
		msg, err := Unmarshal(want)
		if err != nil {
			t.Errorf("%s: decode: %v", tc.name, err)
			continue
		}
		var again []byte
		switch m := msg.(type) {
		case Segment:
			again = MarshalSegment(m)
		case SegmentAck:
			again = MarshalSegmentAck(m)
		default:
			again, _ = remarshal(m)
		}
		if string(again) != string(want) {
			t.Errorf("%s: decode/encode round trip gives\n%x\nwant\n%x", tc.name, again, want)
		}
	}
}

// TestControllerSnapshotGoldenBytes pins the SACS framing around both
// engine sections: engines holding one fused client and one quarantined
// spoofer must write the literal, and the literal must restore into
// fresh engines that write it back unchanged.
func TestControllerSnapshotGoldenBytes(t *testing.T) {
	const golden = "534143530001" +
		"0000006b" + "53414653000100000001020000000001010000000000000001000000000000000140280000000000004020000000000000000000000000000000000000000000000140280000000000004020000000000000000000e8d4a510000000000000000001000000000000000100" +
		"00000085" + "53414453000200000001020000000001020140100000000000000000000000000001000000000000000000000000000000003fe00000000000003fd0000000000000404e000000000000010000000000000000000000000000000000000000e8d4a51000000000e8d4a510000003617031000a73706f6f66636865636b0000000000000abc" +
		"71991cee"
	want, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	engines := func() (*fusion.Engine, *defense.Engine) {
		clk := func() time.Time { return now }
		fe, err := fusion.New(fusion.Config{
			Fence:   &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)},
			APCount: func() int { return 2 }, Clock: clk, TickInterval: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(fe.Close)
		de, err := defense.New(defense.Config{Clock: clk, TickInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(de.Close)
		return fe, de
	}
	mac := wifi.Addr{2, 0, 0, 0, 0, 1}
	ap1, ap2 := geom.Point{X: 0, Y: 0}, geom.Point{X: 24, Y: 0}
	target := geom.Point{X: 12, Y: 8}
	fe, de := engines()
	fe.Ingest(fusion.Bearing{AP: "ap1", APPos: ap1, MAC: mac, Seq: 1, Deg: geom.BearingDeg(ap1, target)})
	fe.Ingest(fusion.Bearing{AP: "ap2", APPos: ap2, MAC: mac, Seq: 1, Deg: geom.BearingDeg(ap2, target)})
	de.ReportSpoof(defense.SpoofVerdict{AP: "ap1", MAC: mac, Flagged: true, Distance: 0.5, Threshold: 0.25, BearingDeg: 60, HasBearing: true, Stage: "spoofcheck", Trace: 0xabc})
	var buf bytes.Buffer
	if err := writeControllerSnapshot(&buf, fe, de); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("writeControllerSnapshot emits\n%x\nwant\n%s", buf.Bytes(), golden)
	}

	fe2, de2 := engines()
	if err := readControllerSnapshot(bytes.NewReader(want), fe2, de2); err != nil {
		t.Fatal(err)
	}
	if ts, ok := fe2.Track(mac); !ok || ts.Pos != target {
		t.Errorf("restored track = %+v, %v", ts, ok)
	}
	if st, ok := de2.State(mac); !ok || st.State != defense.StateQuarantine || st.Trace != 0xabc {
		t.Errorf("restored threat = %+v, %v", st, ok)
	}
	buf.Reset()
	if err := writeControllerSnapshot(&buf, fe2, de2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("read/write round trip gives\n%x\nwant\n%s", buf.Bytes(), golden)
	}
}
