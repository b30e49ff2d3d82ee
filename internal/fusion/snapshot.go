package fusion

// The engine's snapshot codec: a versioned binary encoding of every
// client's durable state — the anti-replay seq window, the mobility
// filter estimate, and the latest fused fix — so a crashed controller
// can restore its fusion state instead of re-learning it (and handing
// every previously-decided sequence number a second decision). In-flight
// pending transmissions are deliberately NOT snapshotted: they are
// transient by design (TTL-bounded) and the journal's WAL tail replays
// the reports that created them.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"time"

	"secureangle/internal/bin"
	"secureangle/internal/locate"
	"secureangle/internal/wifi"
)

// Snapshot codec framing.
const (
	snapMagic   = "SAFS" // SecureAngle Fusion State
	snapVersion = 1
)

// Save writes a versioned binary snapshot of the engine's per-client
// state to w, in MAC order (deterministic bytes for identical state).
// It is safe to call concurrently with ingest; the snapshot is
// consistent per shard, not across shards (the Snapshot contract).
func (e *Engine) Save(w io.Writer) error {
	type rec struct {
		mac        wifi.Addr
		start, end int
	}
	var recs []rec
	var body []byte
	for _, s := range e.shards {
		s.mu.Lock()
		for mac, cl := range s.clients {
			start := len(body)
			body = encodeClient(body, cl)
			recs = append(recs, rec{mac: mac, start: start, end: len(body)})
		}
		s.mu.Unlock()
	}
	sort.Slice(recs, func(i, j int) bool {
		return bytes.Compare(recs[i].mac[:], recs[j].mac[:]) < 0
	})
	bw := bufio.NewWriter(w)
	bw.Write(bin.U32(bin.U16([]byte(snapMagic), snapVersion), uint32(len(recs))))
	for _, r := range recs {
		bw.Write(body[r.start:r.end])
	}
	return bw.Flush()
}

// encodeClient appends one client's wire form to b: MAC, seq window
// (init byte, hi, mask), track filter (pos, vel, init byte), fix state
// (trackPos, lastFix nanos, fixes, lastSeq, decision byte). Shard lock
// held.
func encodeClient(b []byte, cl *client) []byte {
	b = bin.MAC(b, cl.mac)
	b = bin.Bool(b, cl.seqInit)
	b = bin.U64(b, cl.seqHi)
	b = bin.U64(b, cl.seqMask)
	fpos, fvel, finited := cl.filter.State()
	b = bin.Point(b, fpos)
	b = bin.Point(b, fvel)
	b = bin.Bool(b, finited)
	b = bin.Point(b, cl.trackPos)
	// The zero time predates the unix-nano range; encode it as 0 so the
	// round trip preserves lastFix.IsZero for fixless clients.
	var fixNanos uint64
	if !cl.lastFix.IsZero() {
		fixNanos = uint64(cl.lastFix.UnixNano())
	}
	b = bin.U64(b, fixNanos)
	b = bin.U64(b, cl.fixes)
	b = bin.U64(b, cl.lastSeq)
	return append(b, byte(cl.lastDecision))
}

// Restore loads a snapshot written by Save into the engine, replacing
// any state held for the snapshotted MACs (other clients are left
// alone). It is intended for a freshly-built engine before traffic
// arrives — the crash-recovery path — and respects the per-shard client
// cap (restoring more clients than MaxClients evicts, like ingest).
func (e *Engine) Restore(r io.Reader) error {
	blob, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("fusion: snapshot: %w", err)
	}
	br := bin.NewReader(blob)
	magic, ver, count := br.Bytes(4), br.U16(), br.U32()
	if br.Err != nil {
		return fmt.Errorf("fusion: snapshot header: %w", br.Err)
	}
	if string(magic) != snapMagic {
		return fmt.Errorf("fusion: bad snapshot magic %q", magic)
	}
	if ver != snapVersion {
		return fmt.Errorf("fusion: unsupported snapshot version %d", ver)
	}
	for i := uint32(0); i < count; i++ {
		if err := e.restoreClient(&br); err != nil {
			return fmt.Errorf("fusion: snapshot client %d: %w", i, err)
		}
	}
	return nil
}

// restoreClient decodes one client record and installs it in its shard.
func (e *Engine) restoreClient(br *bin.Reader) error {
	mac := br.MAC()
	seqInit, seqHi, seqMask := br.Bool(), br.U64(), br.U64()
	fpos, fvel, finited := br.Point(), br.Point(), br.Bool()
	trackPos, fixNanos := br.Point(), br.U64()
	fixes, lastSeq, decision := br.U64(), br.U64(), locate.Decision(br.U8())
	if br.Err != nil {
		return br.Err
	}
	s := e.shardFor(mac)
	s.mu.Lock()
	defer s.mu.Unlock()
	cl := s.touch(e, mac)
	cl.seqInit, cl.seqHi, cl.seqMask = seqInit, seqHi, seqMask
	cl.filter.SetState(fpos, fvel, finited)
	cl.trackPos = trackPos
	cl.lastFix = time.Time{}
	if fixNanos != 0 {
		cl.lastFix = time.Unix(0, int64(fixNanos))
	}
	cl.fixes, cl.lastSeq, cl.lastDecision = fixes, lastSeq, decision
	return nil
}
