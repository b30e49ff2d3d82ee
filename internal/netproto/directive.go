package netproto

import (
	"encoding/binary"
	"time"

	"secureangle/internal/bin"
	"secureangle/internal/defense"
	"secureangle/internal/journal"
	"secureangle/internal/trace"
	"secureangle/internal/wifi"
)

// The countermeasure exchange, the wire half of the closed defense
// loop: the controller's defense engine emits typed directives
// (quarantine / null-steer / release) which are broadcast to every
// session as TypeDirective frames; agents apply them
// (core.ApplyDirective) and report the applied countermeasure back as
// an acknowledgement frame of the same type. An agent may also send an
// unacknowledged ActionAllow directive to request an operator release
// (Agent.SendRelease — the `secureangle defense -release` CLI path).
// A client entering quarantine is also announced as an Alert broadcast,
// the notice Agent.Alerts delivers.

// Directive is the wire form of one defense countermeasure order: the
// engine's typed directive plus the acknowledgement flag distinguishing
// controller orders (Ack false, controller -> AP) from applied-
// countermeasure reports (Ack true, AP -> controller; Reporter names
// the applying AP).
type Directive struct {
	defense.Directive
	Ack bool
}

// directive wire flag bits.
const (
	directiveFlagHasPos     = 1 << 0
	directiveFlagAck        = 1 << 1
	directiveFlagHasBearing = 1 << 2
)

// MarshalDirective encodes a Directive message body.
func MarshalDirective(d Directive) []byte { return appendDirective(nil, d) }

// appendDirective appends a Directive message body to b.
func appendDirective(b []byte, d Directive) []byte {
	var flags byte
	if d.HasPos {
		flags |= directiveFlagHasPos
	}
	if d.Ack {
		flags |= directiveFlagAck
	}
	if d.HasBearing {
		flags |= directiveFlagHasBearing
	}
	b = append(b, TypeDirective, flags, byte(d.Action), byte(d.From), byte(d.To))
	b = bin.MAC(b, d.MAC)
	b = bin.F64(b, d.BearingDeg)
	b = bin.Point(b, d.Pos)
	b = bin.F64(b, d.Score)
	b = bin.F64(b, d.Distance)
	b = bin.F64(b, d.Threshold)
	b = bin.U64(b, uint64(d.TTL))
	b = bin.Str(b, d.Reporter)
	b = bin.Str(b, d.Stage)
	return bin.U64(b, d.Trace)
}

// readDirective reads a Directive body (after the type byte).
func readDirective(r *bin.Reader) Directive {
	flags := r.U8()
	return Directive{Ack: flags&directiveFlagAck != 0, Directive: defense.Directive{
		HasPos: flags&directiveFlagHasPos != 0, HasBearing: flags&directiveFlagHasBearing != 0,
		Action: defense.Action(r.U8()), From: defense.State(r.U8()), To: defense.State(r.U8()),
		MAC: r.MAC(), BearingDeg: r.F64(), Pos: r.Point(),
		Score: r.F64(), Distance: r.F64(), Threshold: r.F64(), TTL: time.Duration(r.U64()),
		Reporter: r.Str(), Stage: r.Str(), Trace: r.U64(),
	}}
}

// --- Controller side ---

// emitDirective is the defense engine's Emit sink: broadcast the
// directive to every session, and mirror quarantine entries as Alert
// broadcasts, the notice Agent.Alerts consumers receive.
func (c *Controller) emitDirective(d defense.Directive) {
	// A directive re-derived during journal recovery is history: the
	// journal already holds it, and no AP is connected yet to receive
	// it (reconnecting APs get the surviving quarantines as resume
	// frames from startBroadcaster instead).
	if c.recovering.Load() {
		return
	}
	c.journalAppend(d.MAC, journal.RecDirective, journal.EncodeDirective(d))
	c.noteDirectiveSent(d.MAC)
	// A directive is the incident the trace layer exists for: retain its
	// trace unconditionally and mark the fan-out point in the timeline.
	c.traceSpan(trace.StageDirective, d.Trace, d.MAC, "controller", 0)
	c.tracer().Retain(d.Trace)
	// One post per session carries the quarantine's Alert mirror and the
	// directive, framed once here.
	b, n := make([]byte, 0, 256), 1
	if d.To == defense.StateQuarantine && d.From != defense.StateQuarantine {
		b, n = appendFrame(b, MarshalAlert(Alert{
			APName: "controller", MAC: d.MAC, Distance: d.Distance,
			Threshold: d.Threshold, Stage: d.Stage,
			BearingDeg: d.BearingDeg, HasBearing: d.HasBearing, Trace: d.Trace,
		})), 2
		if c.Logf != nil {
			c.logf("controller: quarantining mac=%s reporter=%s score=%.2f action=%s trace=%016x", d.MAC, d.Reporter, d.Score, d.Action, d.Trace)
		}
	}
	at := len(b)
	b = appendDirective(append(b, 0, 0, 0, 0), Directive{Directive: d})
	binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	for _, ac := range c.sessions {
		ac.out.post(b, n, false)
	}
}

// handleDirective processes an inbound Directive frame from an agent:
// acknowledgement frames record the applied countermeasure; an
// unacknowledged ActionAllow is an operator release request. Anything
// else from an agent is ignored (APs do not order countermeasures).
func (c *Controller) handleDirective(d Directive, apName string) {
	if d.Ack {
		c.directiveAcks.Add(1)
		c.noteDirectiveAck(d.MAC, apName)
		c.traceSpan(trace.StageAck, d.Trace, d.MAC, apName, 0)
		c.tracer().Retain(d.Trace)
		if c.journals() != nil {
			c.journalAppend(d.MAC, journal.RecAck, journal.EncodeAck(journal.AckEvent{AP: apName, Directive: d.Directive}))
		}
		if c.Logf != nil {
			c.logf("controller: ap=%s applied %s mac=%s bearing=%.1f trace=%016x", apName, d.Action, d.MAC, d.BearingDeg, d.Trace)
		}
		return
	}
	if d.Action == defense.ActionAllow {
		if c.Logf != nil {
			c.logf("controller: release of %s requested by %s", d.MAC, apName)
		}
		c.releaseFrom(d.MAC, apName)
		return
	}
	if c.Logf != nil {
		c.logf("controller: directive %s from %s ignored (agents cannot order countermeasures)", d.Action, apName)
	}
}

// --- Agent side ---

// Directives delivers controller countermeasure orders through the
// agent's shared background reader (Alerts/TrackReplies feed off the
// same reader; directives read before this call are parked, bounded,
// and flushed to the subscriber). The channel closes when the
// connection drops. Keep draining it once subscribed.
func (a *Agent) Directives() <-chan Directive {
	a.startReader()
	a.pendMu.Lock()
	if !a.readerClosed {
		for _, d := range a.pendDirectives {
			a.directives <- d
		}
	}
	a.pendDirectives = nil
	a.wantDirectives.Store(true)
	a.pendMu.Unlock()
	return a.directives
}

// deliverDirective hands one controller directive to the Directives
// subscriber, or parks it (bounded, oldest dropped) until someone
// subscribes — mirroring deliverAlert.
func (a *Agent) deliverDirective(d Directive) {
	a.pendMu.Lock()
	if !a.wantDirectives.Load() {
		if len(a.pendDirectives) >= cap(a.directives) {
			a.pendDirectives = a.pendDirectives[1:]
		}
		a.pendDirectives = append(a.pendDirectives, d)
		a.pendMu.Unlock()
		return
	}
	a.pendMu.Unlock()
	a.directives <- d
}

// SendDirectiveAck reports an applied countermeasure back to the
// controller: the directive as applied, with Reporter naming this AP.
func (a *Agent) SendDirectiveAck(d defense.Directive) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.writeBody(MarshalDirective(Directive{Directive: d, Ack: true}))
}

// SendRelease asks the controller for an operator release of mac — the
// wire face of Controller.Release.
func (a *Agent) SendRelease(mac wifi.Addr) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.writeBody(MarshalDirective(Directive{
		Directive: defense.Directive{MAC: mac, Action: defense.ActionAllow, Reporter: "operator"},
	}))
}
