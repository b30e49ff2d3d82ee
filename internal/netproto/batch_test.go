package netproto

import (
	"net"
	"reflect"
	"strings"
	"testing"

	"secureangle/internal/wifi"
)

// TestReportBatchRoundTrip: every report field survives the wire, in
// batches of several and of one (the form Agent.Send writes), with and
// without a trace and with an empty AP name.
func TestReportBatchRoundTrip(t *testing.T) {
	batch := []Report{
		{APName: "ap1", MAC: wifi.MustParseAddr("00:16:ea:50:00:05"), BearingDeg: 123.75, SeqNo: 987654321, Trace: 0xdead},
		{APName: "ap2", MAC: wifi.Addr{9, 9, 9, 0, 0, 1}, BearingDeg: -12.25, SeqNo: 8},
		{MAC: wifi.Addr{1, 2, 3, 4, 5, 6}, BearingDeg: 300, SeqNo: 9, Trace: 1},
	}
	for _, rs := range [][]Report{batch, batch[:1], batch[1:2]} {
		msg, err := Unmarshal(MarshalReportBatch(rs))
		if err != nil {
			t.Fatal(err)
		}
		got, ok := msg.(ReportBatch)
		if !ok {
			t.Fatalf("decoded %T, want ReportBatch", msg)
		}
		if !reflect.DeepEqual([]Report(got), rs) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, rs)
		}
	}
}

func TestReportBatchEmptyAndMalformed(t *testing.T) {
	msg, err := Unmarshal(MarshalReportBatch(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := msg.(ReportBatch); len(got) != 0 {
		t.Fatalf("empty batch decoded to %d reports", len(got))
	}

	// A count the body cannot back must be rejected, not allocated.
	bad := []byte{TypeReportBatch, 0xff, 0xff, 0xff, 0xff}
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("hostile count accepted")
	}
	// Trailing garbage after the last report must be rejected.
	b := MarshalReportBatch([]Report{{APName: "x", SeqNo: 1}})
	if _, err := Unmarshal(append(b, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestSendBatchChunksOversized feeds SendBatch more reports than one
// frame can hold and checks every report arrives, split across multiple
// ReportBatch frames.
func TestSendBatchChunksOversized(t *testing.T) {
	// ~23 KB per AP name: 60 reports > 1 MB, forcing at least 2 frames.
	name := strings.Repeat("a", 23<<10)
	var batch []Report
	for i := 0; i < 60; i++ {
		batch = append(batch, Report{APName: name, MAC: wifi.Addr{0, 0, 0, 0, 0, byte(i)}, SeqNo: uint64(i)})
	}

	client, server := net.Pipe()
	type recv struct {
		reports []Report
		frames  int
		err     error
	}
	done := make(chan recv, 1)
	go func() {
		var r recv
		for len(r.reports) < len(batch) {
			body, err := ReadMessage(server)
			if err != nil {
				r.err = err
				break
			}
			msg, err := Unmarshal(body)
			if err != nil {
				r.err = err
				break
			}
			rb, ok := msg.(ReportBatch)
			if !ok {
				t.Errorf("received %T, want ReportBatch", msg)
				break
			}
			r.frames++
			r.reports = append(r.reports, rb...)
		}
		done <- r
	}()

	a := &Agent{conn: client}
	if err := a.SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.frames < 2 {
		t.Fatalf("oversized batch arrived in %d frame(s), want >= 2", r.frames)
	}
	if len(r.reports) != len(batch) {
		t.Fatalf("received %d reports, want %d", len(r.reports), len(batch))
	}
	for i := range batch {
		if r.reports[i].SeqNo != batch[i].SeqNo || r.reports[i].MAC != batch[i].MAC {
			t.Fatalf("report %d arrived out of order or corrupted", i)
		}
	}
}

// BenchmarkUnmarshalReportBatch decodes one 64-report, bearing-only
// ReportBatch frame, the controller's per-frame ingest decode.
func BenchmarkUnmarshalReportBatch(b *testing.B) {
	batch := make([]Report, 64)
	for i := range batch {
		batch[i] = Report{APName: "ap1", MAC: wifi.Addr{2, 0, 0, 0, byte(i >> 8), byte(i)}, BearingDeg: float64(i), SeqNo: uint64(i), Trace: uint64(i + 1)}
	}
	body := MarshalReportBatch(batch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(body); err != nil {
			b.Fatal(err)
		}
	}
}
