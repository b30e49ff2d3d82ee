package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// batchRecords builds n report records with distinguishable payloads.
func batchRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Type: RecReport, Data: []byte(fmt.Sprintf("report-%04d-padding-padding", i))}
	}
	return recs
}

// readDirBytes returns each segment file's contents keyed by name.
func readDirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(segs))
	for _, seg := range segs {
		b, err := os.ReadFile(filepath.Join(dir, seg.name))
		if err != nil {
			t.Fatal(err)
		}
		out[seg.name] = b
	}
	return out
}

// TestAppendBatchMatchesSerialOnDisk pins the group-commit identity
// claim at the byte level: a batch append produces exactly the segment
// files of the same records appended one by one — same names, same
// bytes, same rotation points — so no reader (scan, cursor, recovery)
// can tell the two apart.
func TestAppendBatchMatchesSerialOnDisk(t *testing.T) {
	recs := batchRecords(40)
	fixed := func() time.Time { return time.Unix(1_700_000_000, 0) }
	// Tiny segments force several rotations mid-batch.
	opts := Options{SegmentBytes: 256, Clock: fixed}

	serialDir := t.TempDir()
	js := mustOpen(t, serialDir, opts)
	for _, r := range recs {
		if _, err := js.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	js.Close()

	for _, split := range []int{1, 7, 40} {
		batchDir := t.TempDir()
		jb := mustOpen(t, batchDir, opts)
		for start := 0; start < len(recs); start += split {
			end := min(start+split, len(recs))
			first, err := jb.AppendBatch(recs[start:end])
			if err != nil {
				t.Fatal(err)
			}
			if first != uint64(start)+1 {
				t.Fatalf("split %d: batch at %d assigned first LSN %d", split, start, first)
			}
		}
		jb.Close()

		want, got := readDirBytes(t, serialDir), readDirBytes(t, batchDir)
		if len(want) != len(got) {
			t.Fatalf("split %d: %d segments, serial wrote %d", split, len(got), len(want))
		}
		for name, wb := range want {
			if !bytes.Equal(got[name], wb) {
				t.Errorf("split %d: segment %s diverges from serial appends", split, name)
			}
		}
	}
}

// TestAppendBatchCrashYieldsWholePrefix is the group-commit crash
// test: truncating the log at any byte offset (the crash point) must
// leave a replayable prefix of whole records — LSNs 1..k with every
// payload intact — never a torn or interleaved suffix.
func TestAppendBatchCrashYieldsWholePrefix(t *testing.T) {
	recs := batchRecords(15)
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Clock: func() time.Time { return time.Unix(1_700_000_000, 0) }})
	for start := 0; start < len(recs); start += 5 {
		if _, err := j.AppendBatch(recs[start : start+5]); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("expected one segment, got %d (err %v)", len(segs), err)
	}
	whole, err := os.ReadFile(filepath.Join(dir, segs[0].name))
	if err != nil {
		t.Fatal(err)
	}

	prevKept := len(recs)
	for cut := len(whole); cut >= segHdrSize; cut-- {
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, segs[0].name), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got := collect(t, cutDir, 0)
		if len(got) > prevKept {
			t.Fatalf("cut %d: %d records survive, more than at cut %d", cut, len(got), cut+1)
		}
		prevKept = len(got)
		for i, rec := range got {
			if rec.LSN != uint64(i)+1 {
				t.Fatalf("cut %d: record %d has LSN %d — gap in the prefix", cut, i, rec.LSN)
			}
			if !bytes.Equal(rec.Data, recs[i].Data) {
				t.Fatalf("cut %d: record %d payload torn", cut, i)
			}
		}
		// A couple of spot checks that the journal also recovers and
		// continues from the surviving prefix.
		if cut%37 == 0 {
			j2 := mustOpen(t, cutDir, Options{})
			lsn, err := j2.Append(Record{Type: RecReport, Data: []byte("after-crash")})
			if err != nil {
				t.Fatal(err)
			}
			if lsn != uint64(len(got))+1 {
				t.Fatalf("cut %d: reopened journal assigned LSN %d after %d survivors", cut, lsn, len(got))
			}
			j2.Close()
		}
	}
	if prevKept != 0 {
		t.Fatalf("cut at segment header still yields %d records", prevKept)
	}
}

// TestAppendBatchSingleFsyncUnderAlways pins the durability
// amortisation: under FsyncAlways a whole batch rides exactly one
// fsync instead of one per record.
func TestAppendBatchSingleFsyncUnderAlways(t *testing.T) {
	j := mustOpen(t, t.TempDir(), Options{Fsync: FsyncAlways})
	defer j.Close()
	if _, err := j.Append(Record{Type: RecReport, Data: []byte("warm")}); err != nil {
		t.Fatal(err)
	}
	base := j.Stats().Fsyncs
	if _, err := j.AppendBatch(batchRecords(16)); err != nil {
		t.Fatal(err)
	}
	if d := j.Stats().Fsyncs - base; d != 1 {
		t.Fatalf("batch of 16 under FsyncAlways cost %d fsyncs, want 1", d)
	}
}

// TestFsyncAlwaysConcurrentCommitters drives concurrent FsyncAlways
// appenders through the group-commit barrier: every record must be
// durable on return, the fsync count can never exceed the append
// count, and the log holds every record exactly once.
func TestFsyncAlwaysConcurrentCommitters(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncAlways})
	const goroutines, perG = 4, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := j.Append(Record{Type: RecReport, Data: []byte(fmt.Sprintf("g%d-%d", g, i))}); err != nil {
					t.Errorf("g%d append: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := j.Stats()
	if st.Appends != goroutines*perG {
		t.Fatalf("appends = %d", st.Appends)
	}
	if st.Fsyncs > st.Appends+1 {
		t.Fatalf("fsyncs = %d for %d appends — barrier not coalescing", st.Fsyncs, st.Appends)
	}
	j.Close()
	if got := collect(t, dir, 0); len(got) != goroutines*perG {
		t.Fatalf("recovered %d/%d records", len(got), goroutines*perG)
	}
}

// TestJournalAppendBatchGrowthAmortised pins the userspace buffer's
// amortised growth: until the buffer first reaches its flush mark, a
// one-record AppendBatch — the shape every Append takes — must not
// reallocate and copy the whole pending buffer.
func TestJournalAppendBatchGrowthAmortised(t *testing.T) {
	j := mustOpen(t, t.TempDir(), Options{Fsync: FsyncNever})
	defer j.Close()
	one := batchRecords(1)
	if n := testing.AllocsPerRun(500, func() {
		if _, err := j.AppendBatch(one); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("one-record AppendBatch: %.0f allocs, want 0", n)
	}
}
