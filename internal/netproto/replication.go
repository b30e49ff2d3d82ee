package netproto

// Journal segment streaming: a warm standby subscribes with a
// SegmentAck carrying its per-partition resume positions, and the
// leader streams every partition's journal records to it in Segment
// frames, tailing the live WAL with a journal.Cursor. Empty
// Segment frames double as heartbeats (~2/s per partition), carrying
// the leader's durable tip so the standby can observe lag 0 — the
// failover-readiness signal — and detect leader loss by silence.
//
// The exchange is token-gated: journal streams carry the fleet's full
// event history, so only a session whose Hello presented a valid
// enrollment token (see enroll.go) may subscribe, reusing the AP
// enrollment trust root rather than growing a second one.

import (
	"sort"
	"sync/atomic"
	"time"

	"secureangle/internal/bin"
	"secureangle/internal/journal"
)

// Replication pacing: how often an idle partition sender emits a
// heartbeat frame, how often it polls the cursor at the live tail, and
// the per-frame payload budget (well under MaxMessageSize with frame
// overhead included).
const (
	replHeartbeat    = 500 * time.Millisecond
	replPoll         = 100 * time.Millisecond
	replFrameBudget  = 256 << 10
	replMaxPositions = 4096
)

// Segment is one replication frame: a run of consecutive journal
// records from one partition, plus the leader's current durable tip
// for that partition. Records is empty on heartbeat frames.
type Segment struct {
	// Partition is the MAC-range partition this frame belongs to;
	// PartCount the leader's total, so a fresh standby can size itself
	// from the first frame it sees.
	Partition int
	PartCount int
	// LeaderLSN is the leader journal's last assigned LSN at send time
	// — the number the standby measures its lag against.
	LeaderLSN uint64
	Records   []journal.Record
}

// SegmentAck is the standby-to-leader frame. The first ack on a
// session subscribes: Positions carries the standby's per-partition
// resume points (the last LSN it already holds; empty means "from the
// start of retained history for every partition"). Later acks report
// applied positions, which feed the leader's lag gauge.
type SegmentAck struct {
	Positions []SegmentPos
}

// SegmentPos is one partition's position in a SegmentAck.
type SegmentPos struct {
	Partition int
	LSN       uint64
}

// MarshalSegment encodes a Segment frame.
func MarshalSegment(s Segment) []byte { return framedSegment(s)[4:] }

// framedSegment encodes a Segment with its length prefix, in one
// exactly sized buffer that the session outbox can adopt uncopied.
func framedSegment(s Segment) []byte {
	size := 1 + 2 + 2 + 8 + 4
	for _, r := range s.Records {
		size += 1 + 8 + 8 + 4 + len(r.Data)
	}
	b := make([]byte, 0, 4+size)
	b = bin.U32(b, uint32(size))
	b = append(b, TypeSegment)
	b = bin.U16(b, uint16(s.Partition))
	b = bin.U16(b, uint16(s.PartCount))
	b = bin.U64(b, s.LeaderLSN)
	b = bin.U32(b, uint32(len(s.Records)))
	for _, r := range s.Records {
		b = append(b, byte(r.Type))
		b = bin.U64(b, r.LSN)
		b = bin.Time(b, r.TS)
		b = bin.U32(b, uint32(len(r.Data)))
		b = append(b, r.Data...)
	}
	return b
}

// readSegment reads a Segment body (after the type byte) and requires
// it consumed exactly. It reuses recs (length reset, capacity kept) as
// the Records backing store — the standby apply loop's per-frame
// record-slice reuse. Record Data fields alias the frame.
func readSegment(r *bin.Reader, recs []journal.Record) (Segment, error) {
	s := Segment{Partition: int(r.U16()), PartCount: int(r.U16()), LeaderLSN: r.U64()}
	n := r.U32()
	const recFixed = 1 + 8 + 8 + 4
	if uint64(n)*recFixed > uint64(r.Len()) {
		return Segment{}, ErrBadMessage
	}
	if n > 0 {
		if s.Records = recs[:0]; cap(recs) < int(n) {
			s.Records = make([]journal.Record, 0, n)
		}
	}
	for i := uint32(0); i < n; i++ {
		rec := journal.Record{Type: journal.RecordType(r.U8()), LSN: r.U64(), TS: r.Time()}
		dl := r.U32()
		if dl > journal.MaxRecordSize {
			return Segment{}, ErrBadMessage
		}
		rec.Data = r.Bytes(int(dl))
		s.Records = append(s.Records, rec)
	}
	if r.Err != nil || r.Len() != 0 {
		return Segment{}, ErrBadMessage
	}
	return s, nil
}

// MarshalSegmentAck encodes a SegmentAck frame.
func MarshalSegmentAck(a SegmentAck) []byte {
	b := make([]byte, 0, 1+2+10*len(a.Positions))
	b = bin.U16(append(b, TypeSegmentAck), uint16(len(a.Positions)))
	for _, p := range a.Positions {
		b = bin.U16(b, uint16(p.Partition))
		b = bin.U64(b, p.LSN)
	}
	return b
}

// readSegmentAck reads a SegmentAck body (after the type byte).
func readSegmentAck(r *bin.Reader) (SegmentAck, error) {
	n := r.U16()
	if n > replMaxPositions || r.Len() != int(n)*10 {
		return SegmentAck{}, ErrBadMessage
	}
	a := SegmentAck{}
	if n > 0 {
		a.Positions = make([]SegmentPos, n)
	}
	for i := range a.Positions {
		a.Positions[i] = SegmentPos{Partition: int(r.U16()), LSN: r.U64()}
	}
	return a, nil
}

// --- leader side ---

// replSession is one subscribed standby: per-partition cursors stream
// records to it, and its acks record how far it has applied.
type replSession struct {
	name  string
	parts int
	// acked is the last LSN the peer reported applied; sent the last
	// LSN streamed to it — both per partition, written concurrently by
	// the handler (acks) and the senders.
	acked []atomic.Uint64
	sent  []atomic.Uint64
}

// handleSegmentAck processes one SegmentAck on an authenticated
// session: the first subscribes (spawning the per-partition senders),
// later ones update the session's applied positions. Returns the live
// session so the handler threads it through subsequent acks.
func (c *Controller) handleSegmentAck(sess *replSession, m SegmentAck, apName string, out *outbox, done chan struct{}) *replSession {
	if sess != nil {
		for _, p := range m.Positions {
			if p.Partition >= 0 && p.Partition < sess.parts {
				sess.acked[p.Partition].Store(p.LSN)
			}
		}
		return sess
	}
	js := c.journals()
	if js == nil {
		c.logf("controller: %s subscribed but no journal is attached", apName)
		return nil
	}
	n := len(js)
	sess = &replSession{
		name:  apName,
		parts: n,
		acked: make([]atomic.Uint64, n),
		sent:  make([]atomic.Uint64, n),
	}
	after := make([]uint64, n)
	for _, p := range m.Positions {
		if p.Partition >= 0 && p.Partition < n {
			after[p.Partition] = p.LSN
			sess.acked[p.Partition].Store(p.LSN)
		}
	}
	c.replMu.Lock()
	if c.repl == nil {
		c.repl = make(map[*replSession]struct{})
	}
	c.repl[sess] = struct{}{}
	c.replMu.Unlock()
	c.logf("controller: %s subscribed to journal stream (%d partition(s))", apName, n)
	for i := range js {
		c.wg.Add(1)
		go c.streamPartition(sess, i, js[i], after[i], out, done)
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		select {
		case <-done:
		case <-c.ctx.Done():
		}
		c.replMu.Lock()
		delete(c.repl, sess)
		c.replMu.Unlock()
	}()
	return sess
}

// streamPartition tails one partition's journal from after and ships
// Segment frames to the session's outbox until its connection drops.
// Posts wait while the outbox backlog is high: a slow standby
// backpressures its own stream rather than losing frames (a dropped
// segment would gap the follower's LSN sequence).
func (c *Controller) streamPartition(sess *replSession, part int, j *journal.Journal, after uint64, out *outbox, done chan struct{}) {
	defer c.wg.Done()
	cur := journal.NewCursor(j.Dir(), after)
	defer cur.Close()
	sess.sent[part].Store(after)
	var lastSend time.Time
	send := func(recs []journal.Record) bool {
		if !out.post(framedSegment(Segment{
			Partition: part,
			PartCount: sess.parts,
			LeaderLSN: j.LSN(),
			Records:   recs,
		}), 1, true) {
			return false
		}
		lastSend = time.Now()
		return true
	}
	for {
		select {
		case <-done:
			return
		case <-c.ctx.Done():
			return
		default:
		}
		recs, err := cur.Next(replFrameBudget)
		if err != nil {
			c.logf("controller: journal stream p%d to %s: %v", part, sess.name, err)
			return
		}
		if len(recs) > 0 {
			if !send(recs) {
				return
			}
			sess.sent[part].Store(cur.NextLSN() - 1)
			continue
		}
		// Caught up with the durable tail: heartbeat so the standby can
		// observe lag 0, then poll again shortly.
		if time.Since(lastSend) >= replHeartbeat {
			if !send(nil) {
				return
			}
		}
		select {
		case <-done:
			return
		case <-c.ctx.Done():
			return
		case <-time.After(replPoll):
		}
	}
}

// ReplicaStatus is one subscribed standby's replication state, as the
// leader sees it.
type ReplicaStatus struct {
	Name string `json:"name"`
	// Partitions lists per-partition stream positions; Lag is the
	// leader's durable tip minus the replica's applied LSN.
	Partitions []ReplicaPartition `json:"partitions"`
	MaxLag     uint64             `json:"max_lag"`
}

// ReplicaPartition is one partition's position within a ReplicaStatus.
type ReplicaPartition struct {
	Partition int    `json:"partition"`
	SentLSN   uint64 `json:"sent_lsn"`
	AckedLSN  uint64 `json:"acked_lsn"`
	Lag       uint64 `json:"lag"`
}

// ReplicationStatus reports every live journal-stream subscriber and
// its per-partition lag — the /status face of replication.
func (c *Controller) ReplicationStatus() []ReplicaStatus {
	js := c.journals()
	c.replMu.Lock()
	sessions := make([]*replSession, 0, len(c.repl))
	for s := range c.repl {
		sessions = append(sessions, s)
	}
	c.replMu.Unlock()
	out := make([]ReplicaStatus, 0, len(sessions))
	for _, s := range sessions {
		rs := ReplicaStatus{Name: s.name, Partitions: make([]ReplicaPartition, s.parts)}
		for i := 0; i < s.parts; i++ {
			var tip uint64
			if js != nil && i < len(js) {
				tip = js[i].LSN()
			}
			acked := s.acked[i].Load()
			lag := uint64(0)
			if tip > acked {
				lag = tip - acked
			}
			rs.Partitions[i] = ReplicaPartition{
				Partition: i,
				SentLSN:   s.sent[i].Load(),
				AckedLSN:  acked,
				Lag:       lag,
			}
			if lag > rs.MaxLag {
				rs.MaxLag = lag
			}
		}
		out = append(out, rs)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out
}
