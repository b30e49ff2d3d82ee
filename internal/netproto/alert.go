package netproto

import (
	"net"

	"secureangle/internal/bin"
	"secureangle/internal/defense"
	"secureangle/internal/journal"
	"secureangle/internal/trace"
	"secureangle/internal/wifi"
)

// TypeAlert carries a spoofing alert: an AP that flagged a MAC address
// reports it to the controller, which feeds the scored verdict into its
// defense engine (package defense). When the engine escalates the
// client into quarantine, every connected AP learns about it — through
// a typed Directive and an Alert broadcast — so one AP's detection
// protects the whole deployment (the defense-in-depth posture of
// section 1 applied fleet-wide).
const TypeAlert = 3

// Alert is a spoofing-detection notice for one MAC.
type Alert struct {
	// APName identifies the reporting AP ("controller" on broadcasts).
	APName string
	MAC    wifi.Addr
	// Distance is the signature distance that triggered the flag.
	Distance float64
	// Stage, when non-empty, is the pipeline stage behind the alert —
	// a core.PipelineError's Stage field crossing the wire, so the
	// controller's quarantine records *why* an AP raised the flag
	// ("spoofcheck" for a signature mismatch, "detect"/"estimate" for
	// anomalous failures).
	Stage string
	// Threshold is the match policy's MaxDistance the flag was judged
	// against — with Distance it carries the verdict's margin, so the
	// defense engine weighs a barely-flagged packet differently from a
	// gross mismatch.
	Threshold float64
	// BearingDeg is the bearing the flagging AP observed the offending
	// frame at — the null-steer fallback direction when the threat has
	// no fused position. HasBearing marks it measured (bearing 0 is a
	// legitimate direction): the defense engine will not null-steer on
	// a bearing nobody measured.
	BearingDeg float64
	HasBearing bool
	// Trace is the trace ID of the flagged observation, linking the
	// alert to the packet's end-to-end decision trace.
	Trace uint64
}

// MarshalAlert encodes an Alert message body.
func MarshalAlert(a Alert) []byte {
	b := bin.Str([]byte{TypeAlert}, a.APName)
	b = bin.MAC(b, a.MAC)
	b = bin.F64(b, a.Distance)
	b = bin.Str(b, a.Stage)
	b = bin.F64(b, a.Threshold)
	b = bin.F64(b, a.BearingDeg)
	b = bin.Bool(b, a.HasBearing)
	return bin.U64(b, a.Trace)
}

// readAlert reads an Alert body (after the type byte).
func readAlert(r *bin.Reader) Alert {
	return Alert{
		APName: r.Str(), MAC: r.MAC(), Distance: r.F64(), Stage: r.Str(),
		Threshold: r.F64(), BearingDeg: r.F64(), HasBearing: r.Bool(), Trace: r.U64(),
	}
}

// --- Controller-side connection registry ---

// apConn is one registered session's outbox; conn lets a reconnect
// under the same AP name close the stale session.
type apConn struct {
	out    *outbox
	conn   net.Conn
	health *apHealth
}

// Quarantined returns every client the defense engine currently holds
// in quarantine, ordered by MAC. Entries expire (TTL/decay) and can be
// released (Controller.Release), so the list shrinks as well as grows.
// Threats returns every scored client, quarantined or not.
func (c *Controller) Quarantined() []defense.ClientThreat {
	s := c.partsLoaded()
	if s == nil {
		return nil
	}
	return s.Quarantined()
}

// handleAlert ingests an agent's alert as a scored spoof verdict. The
// defense engine decides whether it escalates; escalations come back
// through emitDirective, which broadcasts to the fleet.
func (c *Controller) handleAlert(a Alert) {
	v := defense.SpoofVerdict{
		AP:         a.APName,
		MAC:        a.MAC,
		Flagged:    true,
		Distance:   a.Distance,
		Threshold:  a.Threshold,
		BearingDeg: a.BearingDeg,
		HasBearing: a.HasBearing,
		Stage:      a.Stage,
		Trace:      a.Trace,
	}
	// An alert is incident evidence: its trace is retained
	// unconditionally, never left to the benign sampler.
	c.traceSpan(trace.StageAlert, a.Trace, a.MAC, a.APName, 0)
	c.tracer().Retain(a.Trace)
	// Apply before journaling (the ingest ordering): a snapshot racing
	// this alert re-applies it from the tail at worst — one bounded
	// double-count of its score — rather than losing the evidence.
	if s := c.partsBuild(); s != nil {
		s.ReportSpoof(v)
	}
	c.journalAppend(v.MAC, journal.RecAlert, journal.EncodeAlert(v))
}

// --- Agent-side ---

// SendAlertDetail reports a flagged MAC to the controller as a scored
// Alert.
func (a *Agent) SendAlertDetail(al Alert) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.writeBody(MarshalAlert(al))
}

// Alerts delivers controller broadcasts through the agent's shared
// background reader (started on first use; TrackReplies and Directives
// feed off the same reader, and up to a buffer's worth of alerts read
// before this call are flushed to the subscriber). The channel closes
// when the connection drops. Only agents that listen for controller
// frames should call this (the read loop consumes the connection's
// inbound side), and callers must keep draining the channel.
func (a *Agent) Alerts() <-chan Alert {
	a.startReader()
	a.pendMu.Lock()
	// Flush parked broadcasts in order before live delivery begins;
	// len(pendAlerts) <= cap(alerts) and nothing was sent while
	// unsubscribed, so these sends cannot block — and the reader only
	// closes the channel after marking readerClosed under this lock,
	// so they cannot hit a closed channel either.
	if !a.readerClosed {
		for _, al := range a.pendAlerts {
			a.alerts <- al
		}
	}
	a.pendAlerts = nil
	a.wantAlerts.Store(true)
	a.pendMu.Unlock()
	return a.alerts
}
