package journal

// Cursor is the replication reader: a resumable, tail-following scan
// of a journal directory that a leader uses to stream records to a
// warm standby. It shares the frame decoder and the segment-header
// check with the recovery scan (scanSegment), but unlike that scan it
// must coexist with the live writer: a short or CRC-failing frame at
// the end of the open segment is usually a record mid-write, not a
// tear, so the cursor parks at the frame boundary and retries from the
// same offset on the next call instead of declaring the segment
// finished.
//
// The cursor surfaces RecSkip records verbatim so a follower
// reproduces compaction gaps, and follows segment rotation by moving
// to the successor segment once the current one is exhausted and a
// segment starting at the next LSN exists.
//
// The read path is allocation-free in steady state: each cursor reads
// the segment in large pooled windows (one ReadAt per batch instead of
// two per record) and parses record frames in place, so the records a
// Next call returns alias the cursor's window buffer. A batch is valid
// only until the next Next or Close call — consume or copy it before
// pulling the next one (the replication sender marshals each batch
// into its wire frame immediately, so the aliasing never escapes).
// Window and record-slice scratch come from a package pool, arena
// style, and return to it on Close.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// cursorBuffers is the pooled scratch one cursor borrows for its
// lifetime: the read window and the reused output slice.
type cursorBuffers struct {
	buf  []byte
	recs []Record
}

var cursorPool = sync.Pool{New: func() any { return &cursorBuffers{} }}

// Cursor reads a journal directory's records in LSN order, resumably.
// Not safe for concurrent use; one goroutine per cursor.
type Cursor struct {
	dir  string
	next uint64 // next LSN to deliver

	f   *os.File // open segment (nil between segments)
	seg uint64   // first LSN of the open segment
	off int64    // absolute offset of the next unparsed frame

	bufs  *cursorBuffers // pooled scratch (nil until first Next, returned on Close)
	win   int            // valid bytes in bufs.buf (read from off-pos)
	pos   int            // parse position within the window
	atEOF bool           // the last fill drained the segment's readable bytes
}

// NewCursor positions a cursor so its first delivered record has
// LSN > after. Pass after=0 to stream from the start of retained
// history (a fresh follower bootstraps onto whatever the leader still
// has — its journal accepts any starting LSN).
func NewCursor(dir string, after uint64) *Cursor {
	return &Cursor{dir: dir, next: after + 1}
}

// NextLSN returns the LSN the next delivered record will have (or
// exceed, when retention starts history later).
func (c *Cursor) NextLSN() uint64 { return c.next }

// Close releases the cursor's open segment and returns its scratch
// buffers to the pool.
func (c *Cursor) Close() error {
	if c.bufs != nil {
		c.bufs.recs = c.bufs.recs[:0]
		cursorPool.Put(c.bufs)
		c.bufs = nil
	}
	if c.f != nil {
		err := c.f.Close()
		c.f = nil
		return err
	}
	return nil
}

// Next returns the next batch of records, up to maxBytes of payload
// (at least one record when any is available, regardless of size). An
// empty batch with nil error means the cursor is caught up with the
// durable tail — poll again later. Frames the writer has not finished
// flushing are invisible until complete.
//
// The returned records alias the cursor's internal window: they are
// valid only until the next call to Next or Close.
func (c *Cursor) Next(maxBytes int) ([]Record, error) {
	if c.bufs == nil {
		c.bufs = cursorPool.Get().(*cursorBuffers)
	}
	// Size the window for a full batch: payload budget plus framing
	// overhead headroom, so one ReadAt usually covers one batch.
	want := maxBytes + maxBytes/2 + (64 << 10)
	if cap(c.bufs.buf) < want {
		c.bufs.buf = make([]byte, want)
	}
	out := c.bufs.recs[:0]
	defer func() { c.bufs.recs = out }()
	total := 0
	for {
		if c.f == nil {
			ok, err := c.openNext()
			if err != nil {
				return out, err
			}
			if !ok {
				return out, nil // no segment holds c.next yet
			}
		}
		c.fill()
		consumed := false
		for {
			rec, st, err := c.parseRecord()
			if err != nil {
				return out, err
			}
			if st == parseSkipped {
				consumed = true
				continue
			}
			if st != parseOK {
				break
			}
			consumed = true
			out = append(out, rec)
			total += len(rec.Data)
			if total >= maxBytes {
				return out, nil
			}
		}
		// The window stalled short of the budget. Anything already
		// parsed goes back now — the next call resumes at c.off (and
		// crosses into the successor segment there if need be).
		if len(out) > 0 {
			return out, nil
		}
		if consumed {
			continue // skipped pre-subscribe records; refill at the new offset
		}
		if !c.atEOF {
			// A single frame larger than the window: grow and re-read.
			// Any other full-window stall (garbage where a frame header
			// should be) parks like a torn tail below.
			if need := frameSize(c.bufs.buf[c.pos:c.win]); need > cap(c.bufs.buf) {
				c.bufs.buf = make([]byte, need)
				continue
			}
		}
		// Exhausted the readable frames here. If a successor segment
		// already starts at c.next, this one is sealed — move on.
		// Otherwise we are at the live tail: hand back what we have.
		if c.successorExists() {
			c.f.Close()
			c.f = nil
			continue
		}
		return out, nil
	}
}

// fill reads a fresh window from the current offset. One syscall per
// window instead of two per record; a short read (or read error) marks
// the window as covering the segment's current readable tail.
func (c *Cursor) fill() {
	buf := c.bufs.buf[:cap(c.bufs.buf)]
	n, err := c.f.ReadAt(buf, c.off)
	c.win, c.pos = n, 0
	c.atEOF = err != nil || n < len(buf)
}

type parseStatus uint8

const (
	parseOK      parseStatus = iota // a record was delivered
	parseStall                      // incomplete, invalid, or mid-write frame: stop here
	parseSkipped                    // a whole frame before the subscribe position was consumed
)

// parseRecord decodes one complete frame at the parse position. On
// parseStall the position is left unchanged so the same offset is
// retried later (mid-write frames become visible on a later fill).
func (c *Cursor) parseRecord() (Record, parseStatus, error) {
	rec, n, ok := decodeFrame(c.bufs.buf[c.pos:c.win])
	if !ok {
		return Record{}, parseStall, nil // tail reached, mid-write, or a tear recovery will judge
	}
	c.pos += n
	c.off += int64(n)
	if rec.LSN < c.next {
		return Record{}, parseSkipped, nil // before the subscribe position
	}
	if rec.LSN != c.next {
		return Record{}, parseStall, fmt.Errorf("journal: cursor sequence broke at LSN %d (want %d)", rec.LSN, c.next)
	}
	end, err := recordEnd(rec)
	if err != nil {
		return Record{}, parseStall, fmt.Errorf("journal: cursor: %w", err)
	}
	c.next = end + 1
	return rec, parseOK, nil
}

// openNext opens the segment containing c.next, or the earliest later
// segment when retention already dropped it (the follower bootstraps
// from there). ok is false when no segment holds records >= c.next.
func (c *Cursor) openNext() (bool, error) {
	segs, err := listSegments(c.dir)
	if err != nil {
		return false, err
	}
	if len(segs) == 0 {
		return false, nil
	}
	pick := -1
	for i, seg := range segs {
		if seg.firstLSN <= c.next {
			pick = i
		}
	}
	if pick == -1 {
		// History starts past c.next: jump forward to its beginning.
		pick = 0
		c.next = segs[0].firstLSN
	}
	path := filepath.Join(c.dir, segs[pick].name)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil // raced retention; retry next call
		}
		return false, err
	}
	var hdr [segHdrSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		f.Close()
		return false, nil // header not flushed yet; retry later
	}
	if err := checkSegHeader(hdr[:], segs[pick].firstLSN); err != nil {
		f.Close()
		return false, fmt.Errorf("journal: segment %s: %w", segs[pick].name, err)
	}
	c.f, c.seg = f, segs[pick].firstLSN
	c.off = segHdrSize
	c.win, c.pos, c.atEOF = 0, 0, false
	return true, nil
}

// successorExists reports whether a segment starting exactly at c.next
// is on disk — the signal that the current segment is sealed. Until the
// cursor has read past the open segment's first record, the segment
// named c.next is the open one itself: its first frame is still being
// written (or torn), so the cursor parks instead of reopening it.
func (c *Cursor) successorExists() bool {
	if c.next == c.seg {
		return false
	}
	_, err := os.Stat(filepath.Join(c.dir, segmentName(c.next)))
	return err == nil
}
