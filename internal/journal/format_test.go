package journal

// The reader contract both readers — the recovery scan behind
// ReadRecords and Open, and the replication Cursor — share through the
// one frame decoder and the one segment-header check.

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestJournalReadRecordsRefusesMidHistoryGap: a sealed segment torn
// mid-way, followed by a later segment, is a hole in the middle of
// history. ReadRecords refuses it rather than silently skipping
// events, and Open resumes past the later segment, never writing into
// the hole.
func TestJournalReadRecordsRefusesMidHistoryGap(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{SegmentBytes: 512, Fsync: FsyncNever})
	appendN(t, j, RecReport, 30, make([]byte, 64))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >= 3 segments, have %d (err %v)", len(segs), err)
	}
	first := filepath.Join(dir, segs[0].name)
	fi, err := os.Stat(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(first, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	err = ReadRecords(dir, 0, func(Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("ReadRecords over a mid-history tear: err = %v, want a gap error", err)
	}

	j = mustOpen(t, dir, Options{Fsync: FsyncNever})
	defer j.Close()
	lsn, err := j.Append(Record{Type: RecReport, Data: []byte("next")})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 31 {
		t.Fatalf("append after reopen got LSN %d, want 31 (past the later segments)", lsn)
	}
}

// TestJournalReadRecordsRefusesAfterBeforeHistory: asking for records
// after an LSN that precedes retained history is an error (the caller
// would miss events), while after=0 streams whatever history is kept.
func TestJournalReadRecordsRefusesAfterBeforeHistory(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{SegmentBytes: 512, Fsync: FsyncNever})
	appendN(t, j, RecReport, 30, make([]byte, 64))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >= 2 segments, have %d (err %v)", len(segs), err)
	}
	// Drop the head segment, as retention would.
	if err := os.Remove(filepath.Join(dir, segs[0].name)); err != nil {
		t.Fatal(err)
	}
	start := segs[1].firstLSN

	if err := ReadRecords(dir, 1, func(Record) error { return nil }); err == nil {
		t.Fatalf("ReadRecords(after=1) with history starting at %d: no error", start)
	}
	if got := collect(t, dir, start-1); len(got) == 0 || got[0].LSN != start {
		t.Fatalf("ReadRecords(after=%d) delivered %d records", start-1, len(got))
	}
	if got := collect(t, dir, 0); len(got) == 0 || got[0].LSN != start || got[len(got)-1].LSN != 30 {
		t.Fatalf("ReadRecords(after=0) delivered %d records from retained history", len(got))
	}
}

// TestJournalReadersRejectBadSegmentHeader: a segment whose header has
// the wrong magic, an unknown format version, or a first LSN that does
// not match its file name is refused by ReadRecords, Open and a Cursor
// alike.
func TestJournalReadersRejectBadSegmentHeader(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(hdr []byte)
	}{
		{"magic", func(hdr []byte) { copy(hdr, "XXXX") }},
		{"version", func(hdr []byte) { binary.BigEndian.PutUint16(hdr[4:6], segVersion+1) }},
		{"lsn", func(hdr []byte) { binary.BigEndian.PutUint64(hdr[6:14], 99) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j := mustOpen(t, dir, Options{Fsync: FsyncNever})
			appendN(t, j, RecReport, 5, make([]byte, 16))
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, segmentName(1))
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(b[:segHdrSize])
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}

			if err := ReadRecords(dir, 0, func(Record) error { return nil }); err == nil {
				t.Error("ReadRecords accepted the segment")
			}
			if j, err := Open(dir, Options{Fsync: FsyncNever}); err == nil {
				j.Close()
				t.Error("Open accepted the segment")
			}
			c := NewCursor(dir, 0)
			defer c.Close()
			if recs, err := c.Next(1 << 20); err == nil {
				t.Errorf("Cursor accepted the segment (%d records)", len(recs))
			}
		})
	}
}

// TestJournalCursorParksAtTornFirstFrame: a segment whose first frame
// is incomplete — freshly rotated and not yet flushed, or torn by a
// crash — parks the Cursor instead of sending it round reopening the
// same segment forever.
func TestJournalCursorParksAtTornFirstFrame(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncNever})
	appendN(t, j, RecReport, 1, make([]byte, 16))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segmentName(1))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-1); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		c := NewCursor(dir, 0)
		defer c.Close()
		recs, err := c.Next(1 << 20)
		if err == nil && len(recs) != 0 {
			err = fmt.Errorf("delivered %d records from a torn segment", len(recs))
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cursor did not park at a torn first frame")
	}
}
