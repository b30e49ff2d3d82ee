package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"secureangle/internal/defense"
	"secureangle/internal/fusion"
	"secureangle/internal/geom"
	"secureangle/internal/wifi"
)

// testClock is a deterministic, strictly-advancing record clock.
func testClock() func() time.Time {
	now := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(time.Millisecond)
		return now
	}
}

func mustOpen(t *testing.T, dir string, opts Options) *Journal {
	t.Helper()
	if opts.Clock == nil {
		opts.Clock = testClock()
	}
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func appendN(t *testing.T, j *Journal, typ RecordType, n int, payload []byte) (first, last uint64) {
	t.Helper()
	for i := 0; i < n; i++ {
		lsn, err := j.Append(Record{Type: typ, Data: payload})
		if err != nil {
			t.Fatal(err)
		}
		if first == 0 {
			first = lsn
		}
		last = lsn
	}
	return first, last
}

func collect(t *testing.T, dir string, after uint64) []Record {
	t.Helper()
	var out []Record
	if err := ReadRecords(dir, after, func(rec Record) error {
		// Data aliases the scan buffer per record; copy for retention.
		cp := rec
		cp.Data = append([]byte(nil), rec.Data...)
		out = append(out, cp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestJournalAppendScanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{})
	ev := ReportEvent{AP: "ap1", APPos: geom.Point{X: 1, Y: 2}, MAC: wifi.Addr{1, 2, 3, 4, 5, 6}, Seq: 7, BearingDeg: 42.5}
	lsn, err := j.Append(Record{Type: RecReport, Data: EncodeReport(ev)})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 1 {
		t.Fatalf("first LSN = %d", lsn)
	}
	rel := ReleaseEvent{MAC: wifi.Addr{9, 9, 9, 9, 9, 9}, Source: "operator"}
	if _, err := j.Append(Record{Type: RecRelease, Data: EncodeRelease(rel)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recs := collect(t, dir, 0)
	if len(recs) != 2 {
		t.Fatalf("scanned %d records", len(recs))
	}
	if recs[0].LSN != 1 || recs[0].Type != RecReport || recs[1].LSN != 2 || recs[1].Type != RecRelease {
		t.Fatalf("records = %+v", recs)
	}
	if recs[0].TS.IsZero() || !recs[1].TS.After(recs[0].TS) {
		t.Errorf("timestamps not stamped/monotonic: %v, %v", recs[0].TS, recs[1].TS)
	}
	got, err := DecodeReport(recs[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ev) {
		t.Errorf("report round trip = %+v, want %+v", got, ev)
	}
	gotRel, err := DecodeRelease(recs[1].Data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRel, rel) {
		t.Errorf("release round trip = %+v", gotRel)
	}
}

func TestJournalReopenContinuesLSN(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{})
	_, last := appendN(t, j, RecAlert, 5, EncodeAlert(defense.SpoofVerdict{AP: "ap1"}))
	j.Close()

	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	lsn, err := j2.Append(Record{Type: RecAlert, Data: EncodeAlert(defense.SpoofVerdict{AP: "ap2"})})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != last+1 {
		t.Fatalf("reopened journal assigned LSN %d, want %d", lsn, last+1)
	}
	j2.Sync()
	recs := collect(t, dir, 0)
	if len(recs) != 6 || recs[5].LSN != 6 {
		t.Fatalf("scan after reopen: %d records, last %+v", len(recs), recs[len(recs)-1])
	}
}

func TestJournalRotationAndScanAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every few records rotate.
	j := mustOpen(t, dir, Options{SegmentBytes: 256})
	payload := EncodeAlert(defense.SpoofVerdict{AP: "ap1", Stage: "spoofcheck"})
	_, last := appendN(t, j, RecAlert, 50, payload)
	j.Close()

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}
	recs := collect(t, dir, 0)
	if len(recs) != 50 || recs[49].LSN != last {
		t.Fatalf("cross-segment scan: %d records, last LSN %d (want 50 through %d)", len(recs), recs[len(recs)-1].LSN, last)
	}
	// after-filter starts mid-stream.
	tail := collect(t, dir, 47)
	if len(tail) != 3 || tail[0].LSN != 48 {
		t.Fatalf("tail scan = %+v", tail)
	}
}

func TestJournalTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{})
	appendN(t, j, RecAlert, 10, EncodeAlert(defense.SpoofVerdict{AP: "ap1"}))
	j.Close()

	// Tear the last record: chop bytes off the only segment.
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (%v)", segs, err)
	}
	path := filepath.Join(dir, segs[0].name)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	recs := collect(t, dir, 0)
	if len(recs) != 9 {
		t.Fatalf("torn tail: scanned %d records, want 9", len(recs))
	}

	// Reopening appends after the durable prefix, in a fresh segment.
	j2 := mustOpen(t, dir, Options{})
	lsn, err := j2.Append(Record{Type: RecAlert, Data: EncodeAlert(defense.SpoofVerdict{AP: "ap2"})})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 10 {
		t.Fatalf("post-tear LSN = %d, want 10", lsn)
	}
	j2.Close()
	recs = collect(t, dir, 0)
	if len(recs) != 10 || recs[9].LSN != 10 {
		t.Fatalf("post-tear scan: %d records", len(recs))
	}
	av, err := DecodeAlert(recs[9].Data)
	if err != nil || av.AP != "ap2" {
		t.Fatalf("post-tear record = %+v (%v)", av, err)
	}
}

func TestJournalCorruptRecordStopsScan(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{})
	appendN(t, j, RecAlert, 5, EncodeAlert(defense.SpoofVerdict{AP: "ap1"}))
	j.Close()

	// Flip a byte inside record 3's frame.
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[0].name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Walk to the third record and corrupt its payload.
	off := segHdrSize
	for i := 0; i < 2; i++ {
		off += recHdrSize + int(binary.BigEndian.Uint32(data[off:off+4]))
	}
	data[off+recHdrSize+frameFixed] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	recs := collect(t, dir, 0)
	if len(recs) != 2 {
		t.Fatalf("scan past corruption: got %d records, want 2 (stop at the tear)", len(recs))
	}
}

func TestJournalSnapshotSaveLoadAndRetention(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{SegmentBytes: 256, MaxSegments: 2})
	payload := EncodeAlert(defense.SpoofVerdict{AP: "ap1"})
	appendN(t, j, RecAlert, 40, payload)

	state := []byte("engine-state-blob-1")
	lsn, err := j.SaveSnapshot(func(w io.Writer) error {
		_, err := w.Write(state)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 40 {
		t.Fatalf("snapshot LSN = %d, want 40", lsn)
	}
	snaps, err := Snapshots(dir)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("Snapshots: %v, err=%v", snaps, err)
	}
	gotLSN := snaps[len(snaps)-1]
	r, err := OpenSnapshot(dir, gotLSN)
	if err != nil {
		t.Fatalf("OpenSnapshot(%d): %v", gotLSN, err)
	}
	blob, _ := io.ReadAll(r)
	r.Close()
	if gotLSN != 40 || !bytes.Equal(blob, state) {
		t.Fatalf("snapshot round trip: LSN %d, %q", gotLSN, blob)
	}

	// More traffic rotates more segments; retention may now drop sealed
	// segments covered by the snapshot, but never the uncovered tail.
	appendN(t, j, RecAlert, 40, payload)
	if _, err := j.SaveSnapshot(func(w io.Writer) error { _, err := w.Write([]byte("blob-2")); return err }); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) > 3 {
		t.Errorf("retention kept %d segments (cap 2 + active)", len(segs))
	}
	// Only the latest snapshotsKept snapshots remain.
	snaps, _ = Snapshots(dir)
	if len(snaps) > snapshotsKept {
		t.Errorf("snapshot retention kept %d generations", len(snaps))
	}
	// The tail after the newest snapshot is still scannable.
	tail := collect(t, dir, j.SnapshotLSN())
	if len(tail) != 0 {
		t.Errorf("unexpected records after final snapshot: %d", len(tail))
	}
	j.Close()
}

func TestJournalNoTrimWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{SegmentBytes: 256, MaxSegments: 2})
	appendN(t, j, RecAlert, 60, EncodeAlert(defense.SpoofVerdict{AP: "ap1"}))
	j.Close()
	recs := collect(t, dir, 0)
	if len(recs) != 60 {
		t.Fatalf("snapshot-less retention lost records: %d/60 remain", len(recs))
	}
}

func TestJournalClosedAppendFails(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{})
	j.Close()
	if _, err := j.Append(Record{Type: RecAlert, Data: []byte{1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := j.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync after close: %v", err)
	}
}

func TestJournalFsyncPolicies(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncInterval, FsyncAlways, FsyncNever} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			j := mustOpen(t, dir, Options{Fsync: p, FsyncEvery: 10 * time.Millisecond})
			appendN(t, j, RecAlert, 20, EncodeAlert(defense.SpoofVerdict{AP: "ap1"}))
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if got := len(collect(t, dir, 0)); got != 20 {
				t.Fatalf("policy %v: %d/20 records durable after close", p, got)
			}
		})
	}
}

func TestJournalConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{SegmentBytes: 4096, Clock: time.Now})
	const (
		writers = 8
		each    = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ev := ReportEvent{AP: fmt.Sprintf("ap%d", w), Seq: uint64(i)}
				if _, err := j.Append(Record{Type: RecReport, Data: EncodeReport(ev)}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	j.Close()
	recs := collect(t, dir, 0)
	if len(recs) != writers*each {
		t.Fatalf("concurrent append: %d/%d records", len(recs), writers*each)
	}
	for i, rec := range recs {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("LSN sequence broke at %d: %d", i, rec.LSN)
		}
	}
}

func TestEventCodecRoundTrips(t *testing.T) {
	mac := wifi.Addr{0xaa, 0xbb, 0xcc, 1, 2, 3}
	dir := defense.Directive{
		MAC: mac, Action: defense.ActionNullSteer,
		From: defense.StateMonitor, To: defense.StateQuarantine,
		Reporter: "ap1", BearingDeg: 123.5, HasBearing: true,
		Pos: geom.Point{X: 3, Y: 4}, HasPos: true,
		Score: 5.25, Distance: 0.9, Threshold: 0.12, Stage: "spoofcheck",
		TTL: 10 * time.Minute,
	}
	if got, err := DecodeDirective(EncodeDirective(dir)); err != nil || !reflect.DeepEqual(got, dir) {
		t.Errorf("directive round trip = %+v (%v)", got, err)
	}
	ack := AckEvent{AP: "ap2", Directive: dir}
	if got, err := DecodeAck(EncodeAck(ack)); err != nil || !reflect.DeepEqual(got, ack) {
		t.Errorf("ack round trip = %+v (%v)", got, err)
	}
	dec := fusion.Decision{MAC: mac, Seq: 42, Pos: geom.Point{X: 1, Y: 2}, APs: []string{"ap1", "ap2"}, Forced: true}
	if got, err := DecodeDecision(EncodeDecision(dec)); err != nil || !reflect.DeepEqual(got, dec) {
		t.Errorf("decision round trip = %+v (%v)", got, err)
	}
	al := defense.SpoofVerdict{AP: "ap1", MAC: mac, Flagged: true, Distance: 0.5, Threshold: 0.12, BearingDeg: 77, HasBearing: true, Stage: "spoofcheck"}
	if got, err := DecodeAlert(EncodeAlert(al)); err != nil || !reflect.DeepEqual(got, al) {
		t.Errorf("alert round trip = %+v (%v)", got, err)
	}
	// Truncated payloads error instead of panicking.
	for _, enc := range [][]byte{EncodeDirective(dir), EncodeAck(ack), EncodeDecision(dec), EncodeAlert(al)} {
		for cut := 0; cut < len(enc); cut++ {
			if _, err := DecodeEvent(Record{Type: RecDirective, Data: enc[:cut]}); err == nil && cut < len(enc) {
				// Some prefixes of other types may decode as a different
				// shape; the guarantee is no panic, which reaching here
				// demonstrates.
				break
			}
		}
	}
}
