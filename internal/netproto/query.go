package netproto

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"time"

	"secureangle/internal/defense"
	"secureangle/internal/fusion"
	"secureangle/internal/geom"
	"secureangle/internal/locate"
	"secureangle/internal/wifi"
)

// The query exchanges: an agent sends Query and the controller answers
// with one or more Tracks frames (KindTracks — the fusion engine's
// live mobility state) or Threats frames (KindThreats — the defense
// engine's live threat state).

// QueryKind selects what a Query asks for.
type QueryKind uint8

const (
	// KindTracks requests mobility-trace state (Tracks replies).
	KindTracks QueryKind = 0
	// KindThreats requests defense threat state (Threats replies).
	KindThreats QueryKind = 1
)

// Query asks the controller for per-client state of the given Kind:
// every tracked client when All is set, otherwise the single MAC. ID
// correlates the reply frames with the request (echoed into every
// reply chunk), so a reply still in flight when its query is abandoned
// cannot be mistaken for the next query's answer.
type Query struct {
	MAC  wifi.Addr
	All  bool
	ID   uint32
	Kind QueryKind
}

// Tracks is the controller's reply to a Query, echoing its ID. Large
// snapshots are chunked across frames; More marks every frame except
// the last.
type Tracks struct {
	ID     uint32
	More   bool
	States []fusion.TrackState
}

// trackWireSize is one encoded TrackState: MAC + pos + vel + fixes +
// lastSeq + updated (unix nanos) + decision byte.
const trackWireSize = 6 + 16 + 16 + 8 + 8 + 8 + 1

// maxTracksPerFrame bounds a Tracks frame under MaxMessageSize.
const maxTracksPerFrame = (MaxMessageSize - 16) / trackWireSize

// MarshalQuery encodes a Query message body. A KindTracks query is 11
// bytes; other kinds append the kind byte.
func MarshalQuery(q Query) []byte {
	b := []byte{TypeQuery, 0}
	if q.All {
		b[1] = 1
	}
	b = binary.BigEndian.AppendUint32(b, q.ID)
	b = append(b, q.MAC[:]...)
	if q.Kind != KindTracks {
		b = append(b, byte(q.Kind))
	}
	return b
}

func unmarshalQuery(rest []byte) (Query, error) {
	if len(rest) != 11 && len(rest) != 12 {
		return Query{}, ErrBadMessage
	}
	var q Query
	q.All = rest[0]&1 != 0
	q.ID = binary.BigEndian.Uint32(rest[1:5])
	copy(q.MAC[:], rest[5:11])
	if len(rest) == 12 {
		q.Kind = QueryKind(rest[11])
	}
	return q, nil
}

// MarshalTracks encodes one Tracks message body. The caller keeps
// len(States) within maxTracksPerFrame (the controller chunks).
func MarshalTracks(t Tracks) []byte {
	b := make([]byte, 0, 10+trackWireSize*len(t.States))
	b = append(b, TypeTrack, 0)
	if t.More {
		b[1] = 1
	}
	b = binary.BigEndian.AppendUint32(b, t.ID)
	b = binary.BigEndian.AppendUint32(b, uint32(len(t.States)))
	for _, ts := range t.States {
		b = append(b, ts.MAC[:]...)
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(ts.Pos.X))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(ts.Pos.Y))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(ts.Vel.X))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(ts.Vel.Y))
		b = binary.BigEndian.AppendUint64(b, ts.Fixes)
		b = binary.BigEndian.AppendUint64(b, ts.LastSeq)
		b = binary.BigEndian.AppendUint64(b, uint64(ts.Updated.UnixNano()))
		b = append(b, byte(ts.Decision))
	}
	return b
}

func unmarshalTracks(rest []byte) (Tracks, error) {
	if len(rest) < 9 {
		return Tracks{}, ErrBadMessage
	}
	var t Tracks
	t.More = rest[0]&1 != 0
	t.ID = binary.BigEndian.Uint32(rest[1:5])
	count64 := uint64(binary.BigEndian.Uint32(rest[5:9]))
	rest = rest[9:]
	if count64 != uint64(len(rest))/trackWireSize || uint64(len(rest)) != count64*trackWireSize {
		return Tracks{}, ErrBadMessage
	}
	t.States = make([]fusion.TrackState, count64)
	for i := range t.States {
		ts := &t.States[i]
		copy(ts.MAC[:], rest[:6])
		ts.Pos = geom.Point{
			X: math.Float64frombits(binary.BigEndian.Uint64(rest[6:14])),
			Y: math.Float64frombits(binary.BigEndian.Uint64(rest[14:22])),
		}
		ts.Vel = geom.Point{
			X: math.Float64frombits(binary.BigEndian.Uint64(rest[22:30])),
			Y: math.Float64frombits(binary.BigEndian.Uint64(rest[30:38])),
		}
		ts.Fixes = binary.BigEndian.Uint64(rest[38:46])
		ts.LastSeq = binary.BigEndian.Uint64(rest[46:54])
		ts.Updated = time.Unix(0, int64(binary.BigEndian.Uint64(rest[54:62])))
		ts.Decision = locate.Decision(rest[62])
		rest = rest[trackWireSize:]
	}
	return t, nil
}

// --- Threats: the defense-state reply ---

// Threats is the controller's reply to a Query{Kind: KindThreats},
// echoing its ID. Large snapshots are chunked across frames; More
// marks every frame except the last.
type Threats struct {
	ID     uint32
	More   bool
	States []defense.ClientThreat
}

// threatFixedWire is one encoded ClientThreat minus its two strings:
// MAC + state + action + score + flags + fenceDrops + speedFlags +
// lastDistance + lastThreshold + bearing + hasBearing + pos + hasPos +
// since + updated (unix nanos).
const threatFixedWire = 6 + 1 + 1 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 1 + 16 + 1 + 8 + 8

// threatMaxStr caps the LastAP/Stage strings on the wire so a frame's
// size is boundable for chunking.
const threatMaxStr = 255

// maxThreatsPerFrame bounds a Threats frame under MaxMessageSize.
const maxThreatsPerFrame = (MaxMessageSize - 16) / (threatFixedWire + 2*(2+threatMaxStr))

// capStr truncates s to the wire cap.
func capStr(s string) string {
	if len(s) > threatMaxStr {
		return s[:threatMaxStr]
	}
	return s
}

// MarshalThreats encodes one Threats message body. The caller keeps
// len(States) within maxThreatsPerFrame (the controller chunks).
func MarshalThreats(t Threats) []byte {
	b := make([]byte, 0, 10+(threatFixedWire+16)*len(t.States))
	b = append(b, TypeThreat, 0)
	if t.More {
		b[1] = 1
	}
	b = binary.BigEndian.AppendUint32(b, t.ID)
	b = binary.BigEndian.AppendUint32(b, uint32(len(t.States)))
	for _, st := range t.States {
		b = append(b, st.MAC[:]...)
		b = append(b, byte(st.State), byte(st.Action))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(st.Score))
		b = binary.BigEndian.AppendUint64(b, st.Flags)
		b = binary.BigEndian.AppendUint64(b, st.FenceDrops)
		b = binary.BigEndian.AppendUint64(b, st.SpeedFlags)
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(st.LastDistance))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(st.LastThreshold))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(st.BearingDeg))
		if st.HasBearing {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(st.Pos.X))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(st.Pos.Y))
		if st.HasPos {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.BigEndian.AppendUint64(b, uint64(st.Since.UnixNano()))
		b = binary.BigEndian.AppendUint64(b, uint64(st.Updated.UnixNano()))
		b = writeString(b, capStr(st.LastAP))
		b = writeString(b, capStr(st.Stage))
	}
	return b
}

func unmarshalThreats(rest []byte) (Threats, error) {
	if len(rest) < 9 {
		return Threats{}, ErrBadMessage
	}
	var t Threats
	t.More = rest[0]&1 != 0
	t.ID = binary.BigEndian.Uint32(rest[1:5])
	count64 := uint64(binary.BigEndian.Uint32(rest[5:9]))
	rest = rest[9:]
	// Each state is at least threatFixedWire + two empty strings.
	if count64 > uint64(len(rest))/(threatFixedWire+4) {
		return Threats{}, ErrBadMessage
	}
	t.States = make([]defense.ClientThreat, count64)
	for i := range t.States {
		if len(rest) < threatFixedWire {
			return Threats{}, ErrBadMessage
		}
		st := &t.States[i]
		copy(st.MAC[:], rest[:6])
		st.State = defense.State(rest[6])
		st.Action = defense.Action(rest[7])
		rest = rest[8:]
		st.Score = math.Float64frombits(binary.BigEndian.Uint64(rest[0:8]))
		st.Flags = binary.BigEndian.Uint64(rest[8:16])
		st.FenceDrops = binary.BigEndian.Uint64(rest[16:24])
		st.SpeedFlags = binary.BigEndian.Uint64(rest[24:32])
		st.LastDistance = math.Float64frombits(binary.BigEndian.Uint64(rest[32:40]))
		st.LastThreshold = math.Float64frombits(binary.BigEndian.Uint64(rest[40:48]))
		st.BearingDeg = math.Float64frombits(binary.BigEndian.Uint64(rest[48:56]))
		st.HasBearing = rest[56] != 0
		st.Pos = geom.Point{
			X: math.Float64frombits(binary.BigEndian.Uint64(rest[57:65])),
			Y: math.Float64frombits(binary.BigEndian.Uint64(rest[65:73])),
		}
		st.HasPos = rest[73] != 0
		st.Since = time.Unix(0, int64(binary.BigEndian.Uint64(rest[74:82])))
		st.Updated = time.Unix(0, int64(binary.BigEndian.Uint64(rest[82:90])))
		rest = rest[90:]
		var err error
		if st.LastAP, rest, err = readString(rest); err != nil {
			return Threats{}, err
		}
		if st.Stage, rest, err = readString(rest); err != nil {
			return Threats{}, err
		}
	}
	if len(rest) != 0 {
		return Threats{}, ErrBadMessage
	}
	return t, nil
}

// --- Agent side ---

// startReader launches the agent's single inbound reader, demuxing
// controller frames onto per-type channels. It is shared by Alerts,
// TrackReplies, ThreatReplies, and Directives — the connection has one
// read side, so whichever is called first owns it and all channels are
// fed. Frames of a kind no caller has subscribed to are dropped
// (alerts and directives: parked, bounded) rather than queued, so the
// reader can only block on a channel some caller has promised to
// drain.
func (a *Agent) startReader() {
	a.readerOnce.Do(func() {
		a.alerts = make(chan Alert, 16)
		a.tracks = make(chan Tracks, 4)
		a.threats = make(chan Threats, 4)
		a.directives = make(chan Directive, 16)
		go func() {
			defer func() {
				// Mark the shutdown under pendMu before closing, so a
				// concurrent Alerts()/Directives() flush never sends on
				// a closed channel (it waits for the lock, sees
				// readerClosed, and skips).
				a.pendMu.Lock()
				a.readerClosed = true
				a.pendMu.Unlock()
				close(a.alerts)
				close(a.tracks)
				close(a.threats)
				close(a.directives)
			}()
			var buf []byte // delivered messages are decoded into copies
			for {
				body, err := ReadMessageBuf(a.br, buf)
				if err != nil {
					return
				}
				if cap(body) <= frameKeep {
					buf = body
				}
				msg, err := Unmarshal(body)
				if err != nil {
					continue
				}
				switch m := msg.(type) {
				case Alert:
					a.deliverAlert(m)
				case Tracks:
					if a.wantTracks.Load() {
						a.tracks <- m
					}
				case Threats:
					if a.wantThreats.Load() {
						a.threats <- m
					}
				case Directive:
					a.deliverDirective(m)
				}
			}
		}()
	})
}

// deliverAlert hands one controller broadcast to the Alerts
// subscriber, or parks it (bounded, oldest dropped) until someone
// subscribes — an agent that started the shared reader via QueryTracks
// before calling Alerts must not lose broadcasts read in between.
func (a *Agent) deliverAlert(m Alert) {
	a.pendMu.Lock()
	if !a.wantAlerts.Load() {
		if len(a.pendAlerts) >= cap(a.alerts) {
			a.pendAlerts = a.pendAlerts[1:]
		}
		a.pendAlerts = append(a.pendAlerts, m)
		a.pendMu.Unlock()
		return
	}
	a.pendMu.Unlock()
	a.alerts <- m
}

// Query asks the controller for per-client state; replies arrive as
// Tracks frames on TrackReplies (KindTracks) or Threats frames on
// ThreatReplies (KindThreats).
func (a *Agent) Query(q Query) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.writeBody(MarshalQuery(q))
}

// TrackReplies delivers the controller's Tracks frames. Like Alerts it
// consumes the connection's inbound side (through the shared reader);
// the channel closes when the connection drops. Keep draining it —
// once subscribed, an abandoned channel stalls the shared reader.
func (a *Agent) TrackReplies() <-chan Tracks {
	a.wantTracks.Store(true)
	a.startReader()
	return a.tracks
}

// QueryTracks sends a KindTracks Query and collects its complete
// (possibly chunked) reply under ctx. It is a convenience for
// request/response callers — serialise calls, and do not interleave
// with manual TrackReplies consumption.
func (a *Agent) QueryTracks(ctx context.Context, q Query) ([]fusion.TrackState, error) {
	ch := a.TrackReplies() // start the reader before the request can race the reply
	// Unsubscribe on return: a late reply to an abandoned query must be
	// discarded, not fill the channel and stall the shared reader.
	defer a.wantTracks.Store(false)
	q.Kind = KindTracks
	q.ID = a.querySeq.Add(1)
	if err := a.Query(q); err != nil {
		return nil, err
	}
	var out []fusion.TrackState
	for {
		select {
		case t, ok := <-ch:
			if !ok {
				return nil, errors.New("netproto: connection closed awaiting Tracks")
			}
			if t.ID != q.ID {
				continue // stale frame of an abandoned earlier query
			}
			out = append(out, t.States...)
			if !t.More {
				return out, nil
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// ThreatReplies delivers the controller's Threats frames through the
// shared reader; the channel closes when the connection drops. Keep
// draining it once subscribed.
func (a *Agent) ThreatReplies() <-chan Threats {
	a.wantThreats.Store(true)
	a.startReader()
	return a.threats
}

// QueryThreats sends a KindThreats Query and collects the controller's
// complete defense threat snapshot under ctx — the wire face of the
// defense engine's Snapshot. Serialise calls, and do not interleave
// with manual ThreatReplies consumption.
func (a *Agent) QueryThreats(ctx context.Context, q Query) ([]defense.ClientThreat, error) {
	ch := a.ThreatReplies()
	defer a.wantThreats.Store(false) // see QueryTracks
	q.Kind = KindThreats
	q.ID = a.querySeq.Add(1)
	if err := a.Query(q); err != nil {
		return nil, err
	}
	var out []defense.ClientThreat
	for {
		select {
		case t, ok := <-ch:
			if !ok {
				return nil, errors.New("netproto: connection closed awaiting Threats")
			}
			if t.ID != q.ID {
				continue // stale frame of an abandoned earlier query
			}
			out = append(out, t.States...)
			if !t.More {
				return out, nil
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// --- Controller side ---

// answerQuery resolves a session's Query against the fusion engine
// (KindTracks) or the defense engine (KindThreats) and posts the
// (chunked) reply to the session's outbox.
func (c *Controller) answerQuery(q Query, sess apConn) {
	switch q.Kind {
	case KindThreats:
		var states []defense.ClientThreat
		if s := c.partsLoaded(); s != nil {
			if q.All {
				states = s.Threats()
			} else if st, ok := s.State(q.MAC); ok {
				states = []defense.ClientThreat{st}
			}
		}
		postChunked(sess, q.ID, states, maxThreatsPerFrame,
			func(id uint32, ss []defense.ClientThreat, more bool) []byte {
				return MarshalThreats(Threats{ID: id, States: ss, More: more})
			})
	default:
		var states []fusion.TrackState
		if q.All {
			states = c.Snapshot()
		} else if ts, ok := c.Track(q.MAC); ok {
			states = []fusion.TrackState{ts}
		}
		postChunked(sess, q.ID, states, maxTracksPerFrame,
			func(id uint32, ss []fusion.TrackState, more bool) []byte {
				return MarshalTracks(Tracks{ID: id, States: ss, More: more})
			})
	}
}

// postChunked splits a query reply across frames of at most maxPer
// states and posts them to the session's outbox as one piece. The first
// frame is always sent: an empty snapshot still terminates the reply.
// The post waits out a backlog like journal streaming does, so a large
// threat table is delivered, not counted as an overflow.
func postChunked[T any](sess apConn, id uint32, states []T, maxPer int, marshal func(id uint32, states []T, more bool) []byte) {
	var b []byte
	frames := 0
	for first := true; first || len(states) > 0; first = false {
		n := min(len(states), maxPer)
		b = appendFrame(b, marshal(id, states[:n], n < len(states)))
		states = states[n:]
		frames++
	}
	sess.out.post(b, frames, true)
}
