package netproto

import (
	"context"
	"fmt"

	"secureangle/internal/bin"
	"secureangle/internal/defense"
	"secureangle/internal/fusion"
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
	b := bin.Bool([]byte{TypeQuery}, q.All)
	b = bin.U32(b, q.ID)
	b = bin.MAC(b, q.MAC)
	if q.Kind != KindTracks {
		b = append(b, byte(q.Kind))
	}
	return b
}

// readQuery reads a Query body (after the type byte); the 11-byte
// form is a KindTracks query.
func readQuery(r *bin.Reader) Query {
	q := Query{All: r.U8()&1 != 0, ID: r.U32(), MAC: r.MAC()}
	if r.Len() == 1 {
		q.Kind = QueryKind(r.U8())
	}
	return q
}

// MarshalTracks encodes one Tracks message body. The caller keeps
// len(States) within maxTracksPerFrame (the controller chunks).
func MarshalTracks(t Tracks) []byte {
	b := make([]byte, 0, 10+trackWireSize*len(t.States))
	b = bin.Bool(append(b, TypeTrack), t.More)
	b = bin.U32(b, t.ID)
	b = bin.U32(b, uint32(len(t.States)))
	for _, ts := range t.States {
		b = bin.MAC(b, ts.MAC)
		b = bin.Point(b, ts.Pos)
		b = bin.Point(b, ts.Vel)
		b = bin.U64(b, ts.Fixes)
		b = bin.U64(b, ts.LastSeq)
		b = bin.Time(b, ts.Updated)
		b = append(b, byte(ts.Decision))
	}
	return b
}

// readTracks reads a Tracks body (after the type byte).
func readTracks(r *bin.Reader) (Tracks, error) {
	t := Tracks{More: r.U8()&1 != 0, ID: r.U32()}
	count64 := uint64(r.U32())
	if uint64(r.Len()) != count64*trackWireSize || count64 != uint64(r.Len())/trackWireSize {
		return Tracks{}, ErrBadMessage
	}
	t.States = make([]fusion.TrackState, count64)
	for i := range t.States {
		t.States[i] = fusion.TrackState{
			MAC: r.MAC(), Pos: r.Point(), Vel: r.Point(),
			Fixes: r.U64(), LastSeq: r.U64(), Updated: r.Time(),
			Decision: locate.Decision(r.U8()),
		}
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
	b = bin.Bool(append(b, TypeThreat), t.More)
	b = bin.U32(b, t.ID)
	b = bin.U32(b, uint32(len(t.States)))
	for _, st := range t.States {
		b = bin.MAC(b, st.MAC)
		b = append(b, byte(st.State), byte(st.Action))
		b = bin.F64(b, st.Score)
		b = bin.U64(b, st.Flags)
		b = bin.U64(b, st.FenceDrops)
		b = bin.U64(b, st.SpeedFlags)
		b = bin.F64(b, st.LastDistance)
		b = bin.F64(b, st.LastThreshold)
		b = bin.F64(b, st.BearingDeg)
		b = bin.Bool(b, st.HasBearing)
		b = bin.Point(b, st.Pos)
		b = bin.Bool(b, st.HasPos)
		b = bin.Time(b, st.Since)
		b = bin.Time(b, st.Updated)
		b = bin.Str(b, capStr(st.LastAP))
		b = bin.Str(b, capStr(st.Stage))
	}
	return b
}

// readThreats reads a Threats body (after the type byte).
func readThreats(r *bin.Reader) (Threats, error) {
	t := Threats{More: r.U8()&1 != 0, ID: r.U32()}
	count64 := uint64(r.U32())
	// Each state is at least threatFixedWire + two empty strings.
	if count64 > uint64(r.Len())/(threatFixedWire+4) {
		return Threats{}, ErrBadMessage
	}
	t.States = make([]defense.ClientThreat, count64)
	for i := range t.States {
		t.States[i] = defense.ClientThreat{
			MAC: r.MAC(), State: defense.State(r.U8()), Action: defense.Action(r.U8()),
			Score: r.F64(), Flags: r.U64(), FenceDrops: r.U64(), SpeedFlags: r.U64(),
			LastDistance: r.F64(), LastThreshold: r.F64(), BearingDeg: r.F64(), HasBearing: r.Bool(),
			Pos: r.Point(), HasPos: r.Bool(), Since: r.Time(), Updated: r.Time(),
			LastAP: r.Str(), Stage: r.Str(),
		}
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
	return queryReply(ctx, a, q, ch, "Tracks", func(t Tracks) (uint32, bool, []fusion.TrackState) { return t.ID, t.More, t.States })
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
	return queryReply(ctx, a, q, ch, "Threats", func(t Threats) (uint32, bool, []defense.ClientThreat) { return t.ID, t.More, t.States })
}

// queryReply sends q under a fresh ID, then collects the states of its
// reply frames from ch under ctx until the frame not marked More.
// Frames with another ID are stale replies to an abandoned earlier
// query.
func queryReply[F, S any](ctx context.Context, a *Agent, q Query, ch <-chan F, kind string, part func(F) (uint32, bool, []S)) ([]S, error) {
	q.ID = a.querySeq.Add(1)
	if err := a.Query(q); err != nil {
		return nil, err
	}
	var out []S
	for {
		select {
		case f, ok := <-ch:
			if !ok {
				return nil, fmt.Errorf("netproto: connection closed awaiting %s", kind)
			}
			fid, more, states := part(f)
			if fid != q.ID {
				continue
			}
			out = append(out, states...)
			if !more {
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
