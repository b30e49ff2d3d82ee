package journal

// The journal's on-disk format, in one place: the segment header, the
// record frame, and the layout of a journal directory tree. Every
// writer (live appends, follower appends, compaction) and every reader
// (the recovery scan, the replication Cursor, layout resolution) goes
// through these helpers.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Segment framing.
const (
	segMagic   = "SAWL" // SecureAngle Write-ahead Log
	segVersion = 1
	segHdrSize = 4 + 2 + 8
	recHdrSize = 4 + 4
	// frameFixed is the frame's fixed prefix: type + lsn + timestamp.
	frameFixed = 1 + 8 + 8
)

// MaxRecordSize bounds one record's frame (the netproto message bound:
// nothing the controller journals is larger).
const MaxRecordSize = 1 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendSegHeader appends the header of the segment whose first record
// is firstLSN.
func appendSegHeader(b []byte, firstLSN uint64) []byte {
	b = append(b, segMagic...)
	b = binary.BigEndian.AppendUint16(b, segVersion)
	return binary.BigEndian.AppendUint64(b, firstLSN)
}

// checkSegHeader validates a complete segment header against the first
// LSN the segment's file name carries.
func checkSegHeader(hdr []byte, firstLSN uint64) error {
	if string(hdr[:4]) != segMagic {
		return fmt.Errorf("bad segment magic %q", hdr[:4])
	}
	if v := binary.BigEndian.Uint16(hdr[4:6]); v != segVersion {
		return fmt.Errorf("unsupported segment version %d", v)
	}
	if got := binary.BigEndian.Uint64(hdr[6:segHdrSize]); got != firstLSN {
		return fmt.Errorf("header LSN %d does not match name (%d)", got, firstLSN)
	}
	return nil
}

// checkRecordSize bounds one record's payload.
func checkRecordSize(data []byte) error {
	if len(data) > MaxRecordSize-frameFixed {
		return fmt.Errorf("journal: record of %d bytes exceeds MaxRecordSize", len(data))
	}
	return nil
}

// appendFrame appends rec's frame to b: length and CRC32C of the frame,
// then the frame itself (type, LSN, timestamp, payload).
func appendFrame(b []byte, rec *Record) []byte {
	start := len(b)
	b = binary.BigEndian.AppendUint32(b, uint32(frameFixed+len(rec.Data)))
	b = append(b, 0, 0, 0, 0) // crc placeholder
	b = append(b, byte(rec.Type))
	b = binary.BigEndian.AppendUint64(b, rec.LSN)
	b = binary.BigEndian.AppendUint64(b, uint64(rec.TS.UnixNano()))
	b = append(b, rec.Data...)
	binary.BigEndian.PutUint32(b[start+4:], crc32.Checksum(b[start+recHdrSize:], crcTable))
	return b
}

// frameSize returns the full byte size of the frame whose header starts
// b, or 0 when b is too short to hold the header or its length field is
// out of range (a torn, zero-filled, or foreign tail).
func frameSize(b []byte) int {
	if len(b) < recHdrSize {
		return 0
	}
	n := binary.BigEndian.Uint32(b)
	if n < frameFixed || n > MaxRecordSize {
		return 0
	}
	return recHdrSize + int(n)
}

// decodeFrame decodes the frame at the start of b and returns it with
// its byte size. ok is false when b holds no complete frame or the CRC
// fails — a record still being written, or a tear. The record's Data
// aliases b.
func decodeFrame(b []byte) (rec Record, n int, ok bool) {
	n = frameSize(b)
	if n == 0 || len(b) < n {
		return Record{}, 0, false
	}
	frame := b[recHdrSize:n:n]
	if crc32.Checksum(frame, crcTable) != binary.BigEndian.Uint32(b[4:8]) {
		return Record{}, 0, false
	}
	return Record{
		Type: RecordType(frame[0]),
		LSN:  binary.BigEndian.Uint64(frame[1:9]),
		TS:   time.Unix(0, int64(binary.BigEndian.Uint64(frame[9:17]))),
		Data: frame[frameFixed:],
	}, n, true
}

// recordEnd returns the last LSN rec accounts for: its own, or for a
// RecSkip the end of the compacted gap it stands in for.
func recordEnd(rec Record) (uint64, error) {
	if rec.Type != RecSkip {
		return rec.LSN, nil
	}
	skip, err := DecodeSkip(rec.Data)
	if err != nil {
		return rec.LSN, fmt.Errorf("bad skip record at LSN %d: %w", rec.LSN, err)
	}
	if skip.End < rec.LSN {
		return rec.LSN, fmt.Errorf("skip record at LSN %d ends at %d", rec.LSN, skip.End)
	}
	return skip.End, nil
}

// --- Directory layout ---

func segmentName(firstLSN uint64) string { return fmt.Sprintf("wal-%020d.log", firstLSN) }

func snapshotName(lsn uint64) string { return fmt.Sprintf("snap-%020d.snap", lsn) }

func partitionDir(dir string, i int) string { return filepath.Join(dir, fmt.Sprintf("p%d", i)) }

// nameLSN parses the LSN out of a prefix%020dsuffix file name.
func nameLSN(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
	return n, err == nil
}

// Dirs resolves the journal layout on disk under dir, in partition
// order: dir itself for a flat single-partition journal, or
// dir/p0..p{N-1} for an N-partition tree. A directory holding no
// journal yet resolves to none; one holding both layouts is an error.
func Dirs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	flat := false
	subdirs := map[string]bool{}
	for _, e := range entries {
		_, seg := nameLSN(e.Name(), "wal-", ".log")
		_, snap := nameLSN(e.Name(), "snap-", ".snap")
		flat = flat || seg || snap
		subdirs[e.Name()] = e.IsDir()
	}
	var parts []string
	for i := 0; subdirs[fmt.Sprintf("p%d", i)]; i++ {
		parts = append(parts, partitionDir(dir, i))
	}
	switch {
	case flat && len(parts) > 0:
		return nil, fmt.Errorf("journal: %s holds both a flat journal and partition directories", dir)
	case flat:
		return []string{dir}, nil
	}
	return parts, nil
}

// OpenDir opens (creating as needed) the n-partition journal layout
// under dir: one flat journal in dir when n is 1, dir/p0..p{n-1}
// otherwise. An existing layout of any other shape is refused rather
// than silently splitting or merging history (re-partitioning a journal
// is an offline migration, not a config change). On error nothing is
// left open.
func OpenDir(dir string, n int, opts Options) ([]*Journal, error) {
	if n < 1 {
		return nil, fmt.Errorf("journal: %d partitions", n)
	}
	want := []string{dir}
	if n > 1 {
		want = want[:0]
		for i := 0; i < n; i++ {
			want = append(want, partitionDir(dir, i))
		}
	}
	have, err := Dirs(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	if len(have) > 0 && !slices.Equal(have, want) {
		layout := "a flat journal"
		if have[0] != dir {
			layout = fmt.Sprintf("%d partition directories", len(have))
		}
		return nil, fmt.Errorf("journal: %s holds %s; refusing to open it with %d partition(s)", dir, layout, n)
	}
	js := make([]*Journal, 0, n)
	for _, d := range want {
		j, err := Open(d, opts)
		if err != nil {
			for _, j := range js {
				j.Close()
			}
			return nil, err
		}
		js = append(js, j)
	}
	return js, nil
}
