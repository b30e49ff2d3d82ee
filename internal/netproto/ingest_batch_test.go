package netproto

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"secureangle/internal/geom"
	"secureangle/internal/journal"
	"secureangle/internal/locate"
	"secureangle/internal/trace"
	"secureangle/internal/wifi"
)

// ingestWorkload builds a report stream covering every partition of a
// 4-way split: interleaved fusing pairs (several per MAC, so batches
// hold multiple same-MAC decisions), duplicate reports, and one report
// from an AP the controller never registered.
func ingestWorkload() []Report {
	ap1Pos, ap2Pos := geom.Point{X: 0, Y: 0}, geom.Point{X: 24, Y: 0}
	targets := []geom.Point{{X: 12, Y: 8}, {X: 6, Y: 4}, {X: 18, Y: 10}}
	var rs []Report
	for seq := uint64(1); seq <= 4; seq++ {
		for m := 0; m < 16; m++ {
			mac := wifi.Addr{byte(m << 4), 0, 0, 0, 0, byte(m)} // spread over partitions
			// One target per MAC: a client teleporting between targets
			// would trip the defense engine's velocity anomaly and emit
			// directives whose lease deadlines read the wall clock —
			// nondeterministic journal bytes either way it is ingested.
			target := targets[m%len(targets)]
			rs = append(rs,
				Report{APName: "ap1", MAC: mac, SeqNo: seq, BearingDeg: geom.BearingDeg(ap1Pos, target)},
				Report{APName: "ap2", MAC: mac, SeqNo: seq, BearingDeg: geom.BearingDeg(ap2Pos, target)},
			)
			if m%4 == 0 {
				rs = append(rs, Report{APName: "ap1", MAC: mac, SeqNo: seq, BearingDeg: geom.BearingDeg(ap1Pos, target)})
			}
		}
		rs = append(rs, Report{APName: "ghost", MAC: wifi.Addr{1}, SeqNo: seq, BearingDeg: 10})
	}
	return rs
}

// newIngestController builds a journaled 4-partition controller with
// pinned clocks and registered AP positions, fed directly through the
// ingest fast paths (no TCP: the frame dispatch is covered elsewhere).
func newIngestController(t *testing.T) (*Controller, string) {
	t.Helper()
	fence := &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)}
	c := NewController(fence)
	c.Partitions = 4
	c.SnapshotInterval = -1
	c.Logf = func(string, ...any) {}
	dir := t.TempDir()
	if err := c.WithJournalDir(dir, journal.Options{
		Clock: func() time.Time { return time.Unix(1_700_000_000, 0) },
	}); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.apPos["ap1"] = geom.Point{X: 0, Y: 0}
	c.apPos["ap2"] = geom.Point{X: 24, Y: 0}
	c.mu.Unlock()
	return c, dir
}

// journalStreams reads every partition journal back as one string per
// partition (LSN, type, payload), the comparison key for stream
// identity.
func journalStreams(t *testing.T, base string, parts int) []string {
	t.Helper()
	out := make([]string, parts)
	for p := 0; p < parts; p++ {
		if err := journal.ReadRecords(filepath.Join(base, fmt.Sprintf("p%d", p)), 0, func(rec journal.Record) error {
			out[p] += fmt.Sprintf("%d %d %x %d\n", rec.LSN, rec.Type, rec.Data, rec.TS.UnixNano())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// ingestWorkloadStreams pins the sha256 of each partition's journal
// stream (journalStreams) after ingestWorkload, fed one report at a
// time through the controller's former serial ingest path, and the
// unknown-AP drops it counted. Every batching must reproduce them.
var ingestWorkloadStreams = [4]string{
	"c30bd60a954d04f9f0b9cbca3233848502655ed28555ffdf897f9634a4559146",
	"6aa46f1e4128435f8b772f77237f40560292b4670cb435e2917be963f809cf22",
	"29052c770a728d521c42497df6891766075e1508c03f86596ef6ea302d51a8a6",
	"67e66742d8a82f42d379c29368f227ba0741229480064e29b5a86938074e8075",
}

const ingestWorkloadUnknown = 4

// TestIngestBatchJournalStreamIdentity pins the controller-level
// identity claim of the one ingest path: for any batch sizing,
// ingestBatch leaves every partition journal byte-identical to the
// pinned one-report-at-a-time stream — decisions interleaved before
// their completing report's record, group-committed report runs
// indistinguishable from single appends — and drops the same
// unknown-AP reports.
func TestIngestBatchJournalStreamIdentity(t *testing.T) {
	rs := ingestWorkload()
	for _, size := range []int{1, 2, 5, 64, len(rs)} {
		c, dir := newIngestController(t)
		for start := 0; start < len(rs); start += size {
			c.ingestBatch(rs[start:min(start+size, len(rs))], trace.Now())
		}
		if got := c.unknownAP.Load(); got != ingestWorkloadUnknown {
			t.Errorf("size %d: unknown-AP drops = %d, want %d", size, got, ingestWorkloadUnknown)
		}
		c.Close()
		for p, s := range journalStreams(t, dir, 4) {
			if s == "" {
				t.Fatalf("size %d: partition %d empty — workload does not cover the split", size, p)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(s))); got != ingestWorkloadStreams[p] {
				t.Errorf("size %d: partition %d journal stream sha256 %s, want %s\n%s",
					size, p, got, ingestWorkloadStreams[p], s)
			}
		}
	}
}
