package defense

// The threat engine's snapshot codec: a versioned binary encoding of
// every tracked client's threat state — score, state-machine position,
// evidence counters, and the direction/position data countermeasures
// are aimed with — so a restarted controller resumes live quarantines
// instead of handing every quarantined attacker a free re-entry window.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"

	"secureangle/internal/bin"
	"secureangle/internal/wifi"
)

// Snapshot codec framing. v2 carries the threat's last trace ID after
// the strings, so incident-timeline causality survives a restart. It is
// the only version Restore reads.
const (
	snapMagic   = "SADS" // SecureAngle Defense State
	snapVersion = 2
)

// Save writes a versioned binary snapshot of the engine's threat state
// to w, in MAC order (deterministic bytes for identical state). Safe to
// call concurrently with ingest; consistent per shard, not across
// shards.
func (e *Engine) Save(w io.Writer) error {
	type rec struct {
		mac        wifi.Addr
		start, end int
	}
	var recs []rec
	var body []byte
	for _, s := range e.shards {
		s.mu.Lock()
		for mac, th := range s.threats {
			start := len(body)
			body = encodeThreat(body, th)
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

// encodeThreat appends one threat's wire form: MAC, state, action,
// score, the three evidence counters, distance, threshold, bearing,
// hasBearing, pos, hasPos, since, updated, the two length-prefixed
// strings, then the last trace ID. Shard lock held.
func encodeThreat(b []byte, th *threat) []byte {
	b = bin.MAC(b, th.mac)
	b = append(b, byte(th.state), byte(th.action))
	b = bin.F64(b, th.score)
	b = bin.U64(b, th.flags)
	b = bin.U64(b, th.fenceDrops)
	b = bin.U64(b, th.speedFlags)
	b = bin.F64(b, th.lastDistance)
	b = bin.F64(b, th.lastThreshold)
	b = bin.F64(b, th.bearingDeg)
	b = bin.Bool(b, th.hasBearing)
	b = bin.Point(b, th.pos)
	b = bin.Bool(b, th.hasPos)
	b = bin.Time(b, th.since)
	b = bin.Time(b, th.updated)
	b = bin.Str(b, th.lastAP)
	b = bin.Str(b, th.stage)
	return bin.U64(b, th.lastTrace)
}

// Restore loads a snapshot written by Save into the engine, replacing
// any state held for the snapshotted MACs. Intended for a freshly-built
// engine before traffic arrives (the crash-recovery path); no
// directives are emitted — restored quarantines are already in force at
// the engine's view of the fleet, and the controller re-broadcasts them
// to APs as they (re)connect.
func (e *Engine) Restore(r io.Reader) error {
	blob, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("defense: snapshot: %w", err)
	}
	br := bin.NewReader(blob)
	magic, ver, count := br.Bytes(4), br.U16(), br.U32()
	if br.Err != nil {
		return fmt.Errorf("defense: snapshot header: %w", br.Err)
	}
	if string(magic) != snapMagic {
		return fmt.Errorf("defense: bad snapshot magic %q", magic)
	}
	if ver != snapVersion {
		return fmt.Errorf("defense: unsupported snapshot version %d", ver)
	}
	for i := uint32(0); i < count; i++ {
		if err := e.restoreThreat(&br); err != nil {
			return fmt.Errorf("defense: snapshot threat %d: %w", i, err)
		}
	}
	return nil
}

// restoreThreat decodes one threat record and installs it in its
// shard.
func (e *Engine) restoreThreat(br *bin.Reader) error {
	t := threat{
		mac: br.MAC(), state: State(br.U8()), action: Action(br.U8()), score: br.F64(),
		flags: br.U64(), fenceDrops: br.U64(), speedFlags: br.U64(),
		lastDistance: br.F64(), lastThreshold: br.F64(), bearingDeg: br.F64(), hasBearing: br.Bool(),
		pos: br.Point(), hasPos: br.Bool(), since: br.Time(), updated: br.Time(),
		lastAP: br.Str(), stage: br.Str(), lastTrace: br.U64(),
	}
	if br.Err != nil {
		return br.Err
	}
	now := e.cfg.Clock()
	s := e.shardFor(t.mac)
	s.mu.Lock()
	th, ds := s.touch(e, t.mac, now)
	t.lruPrev, t.lruNext = th.lruPrev, th.lruNext
	*th = t
	s.unlockAndEmit(e, ds)
	return nil
}
