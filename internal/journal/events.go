package journal

// The controller's journalled event vocabulary and its versioned binary
// codecs. Inputs (reports, alerts, releases) are what recovery and
// replay re-apply; outputs (decisions, directives, acks) are recorded
// for audit and for comparing a counterfactual replay against what the
// fleet actually did. Every payload opens with a codec version byte so
// old journals stay readable as fields are added.

import (
	"fmt"
	"sync/atomic"
	"time"

	"secureangle/internal/bin"
	"secureangle/internal/defense"
	"secureangle/internal/fusion"
	"secureangle/internal/geom"
	"secureangle/internal/locate"
	"secureangle/internal/wifi"
)

// RecordType identifies a journal record's payload.
type RecordType uint8

const (
	// RecReport is one AP bearing report at controller ingest (input).
	RecReport RecordType = 1
	// RecAlert is one scored spoof verdict (input).
	RecAlert RecordType = 2
	// RecDecision is one fused fence decision (output).
	RecDecision RecordType = 3
	// RecDirective is one defense countermeasure order (output).
	RecDirective RecordType = 4
	// RecAck is one AP's applied-countermeasure acknowledgement (audit).
	RecAck RecordType = 5
	// RecRelease is one operator release (input).
	RecRelease RecordType = 6
	// RecSkip marks a compaction gap: the record's own LSN is the first
	// elided LSN and its payload carries the last. Readers advance the
	// expected sequence across the gap without dispatching anything.
	RecSkip RecordType = 7
	// RecEnroll is one enrollment-table mutation: an AP token digest
	// minted (Digest set) or revoked (Digest empty). Journalled so
	// tokens survive crash recovery and replicate to a standby — APs
	// re-home after failover without re-minting (audit/input).
	RecEnroll RecordType = 8
)

// String names the record type.
func (t RecordType) String() string {
	switch t {
	case RecReport:
		return "report"
	case RecAlert:
		return "alert"
	case RecDecision:
		return "decision"
	case RecDirective:
		return "directive"
	case RecAck:
		return "ack"
	case RecRelease:
		return "release"
	case RecSkip:
		return "skip"
	case RecEnroll:
		return "enroll"
	default:
		return fmt.Sprintf("record(%d)", uint8(t))
	}
}

// eventVersion is the current payload codec version. Version 2 appends
// a 64-bit trace ID to the report/alert/decision/directive/release
// payloads (the distributed-tracing context an incident timeline joins
// on); version-1 journals decode with a zero trace.
const eventVersion = 2

// eventVersionV1 is the pre-trace codec; still readable.
const eventVersionV1 = 1

// ReportEvent is one bearing report as ingested: the wire Report with
// the AP's position resolved against the registry at ingest time, so
// replay does not depend on the (long-gone) registration state.
type ReportEvent struct {
	AP         string
	APPos      geom.Point
	MAC        wifi.Addr
	Seq        uint64
	BearingDeg float64
	// Trace is the packet's trace ID (0 on records written by pre-v2
	// codecs or untraced wire sessions).
	Trace uint64
}

// AckEvent is one applied-countermeasure acknowledgement.
type AckEvent struct {
	AP        string
	Directive defense.Directive
}

// ReleaseEvent is one operator release.
type ReleaseEvent struct {
	MAC wifi.Addr
	// Source names the release path ("operator" for the in-process API,
	// the AP name for wire requests).
	Source string
	// Trace is the trace ID of the evidence chain being released (0
	// when the release has no traced antecedent).
	Trace uint64
}

// openPayload checks a payload's codec version byte and returns a
// reader over the fields after it, with the version. An empty payload
// or an unknown version yields a reader already holding the error.
func openPayload(b []byte) (bin.Reader, byte) {
	if len(b) < 1 {
		return bin.Reader{Err: bin.ErrShort}, 0
	}
	if b[0] != eventVersion && b[0] != eventVersionV1 {
		return bin.Reader{Err: fmt.Errorf("journal: unsupported event codec version %d", b[0])}, 0
	}
	return bin.NewReader(b[1:]), b[0]
}

// readTrace reads the trailing trace ID a version-2 payload carries;
// version-1 payloads decode with a zero trace.
func readTrace(r *bin.Reader, ver byte) uint64 {
	if ver < eventVersion {
		return 0
	}
	return r.U64()
}

// --- event codecs ---

// EncodeReport encodes a ReportEvent payload.
func EncodeReport(ev ReportEvent) []byte {
	return AppendReport(make([]byte, 0, 1+2+len(ev.AP)+16+6+8+8+8), ev)
}

// AppendReport appends a ReportEvent payload to b — the arena form
// batched ingest uses to encode a whole flush of report records into
// one reused buffer instead of one allocation per report.
func AppendReport(b []byte, ev ReportEvent) []byte {
	b = append(b, eventVersion)
	b = bin.Str(b, ev.AP)
	b = bin.Point(b, ev.APPos)
	b = bin.MAC(b, ev.MAC)
	b = bin.U64(b, ev.Seq)
	b = bin.F64(b, ev.BearingDeg)
	return bin.U64(b, ev.Trace)
}

// DecodeReport decodes an EncodeReport payload.
func DecodeReport(b []byte) (ReportEvent, error) {
	r, ver := openPayload(b)
	ev := ReportEvent{AP: r.Str(), APPos: r.Point(), MAC: r.MAC(), Seq: r.U64(), BearingDeg: r.F64(), Trace: readTrace(&r, ver)}
	return ev, r.Err
}

// EncodeAlert encodes a scored spoof verdict payload.
func EncodeAlert(v defense.SpoofVerdict) []byte {
	b := append(make([]byte, 0, 1+2+len(v.AP)+6+1+8+8+8+2+len(v.Stage)+8), eventVersion)
	b = bin.Str(b, v.AP)
	b = bin.MAC(b, v.MAC)
	var flags byte
	if v.Flagged {
		flags |= 1
	}
	if v.HasBearing {
		flags |= 2
	}
	b = append(b, flags)
	b = bin.F64(b, v.Distance)
	b = bin.F64(b, v.Threshold)
	b = bin.F64(b, v.BearingDeg)
	b = bin.Str(b, v.Stage)
	return bin.U64(b, v.Trace)
}

// DecodeAlert decodes an EncodeAlert payload.
func DecodeAlert(b []byte) (defense.SpoofVerdict, error) {
	r, ver := openPayload(b)
	v := defense.SpoofVerdict{AP: r.Str(), MAC: r.MAC()}
	flags := r.U8()
	v.Flagged, v.HasBearing = flags&1 != 0, flags&2 != 0
	v.Distance, v.Threshold, v.BearingDeg = r.F64(), r.F64(), r.F64()
	v.Stage = r.Str()
	v.Trace = readTrace(&r, ver)
	return v, r.Err
}

// EncodeDecision encodes a fused fence decision payload.
func EncodeDecision(d fusion.Decision) []byte {
	size := 1 + 6 + 8 + 16 + 1 + 1 + 1 + 8
	for _, ap := range d.APs {
		size += 2 + len(ap)
	}
	b := append(make([]byte, 0, size), eventVersion)
	b = bin.MAC(b, d.MAC)
	b = bin.U64(b, d.Seq)
	b = bin.Point(b, d.Pos)
	b = append(b, byte(d.Decision))
	b = bin.Bool(b, d.Forced)
	b = append(b, byte(len(d.APs)))
	for _, ap := range d.APs {
		b = bin.Str(b, ap)
	}
	return bin.U64(b, d.Trace)
}

// DecodeDecision decodes an EncodeDecision payload.
func DecodeDecision(b []byte) (fusion.Decision, error) {
	r, ver := openPayload(b)
	d := fusion.Decision{MAC: r.MAC(), Seq: r.U64(), Pos: r.Point(), Decision: locate.Decision(r.U8()), Forced: r.Bool()}
	n := int(r.U8())
	for i := 0; i < n && r.Err == nil; i++ {
		d.APs = append(d.APs, r.Str())
	}
	d.Trace = readTrace(&r, ver)
	return d, r.Err
}

// directiveSize is the EncodeDirective payload length of d.
func directiveSize(d defense.Directive) int {
	return 1 + 6 + 3 + 1 + 8*6 + 8 + 2 + len(d.Reporter) + 2 + len(d.Stage) + 8
}

// EncodeDirective encodes a defense directive payload — the canonical
// byte form replay determinism is judged against.
func EncodeDirective(d defense.Directive) []byte {
	return appendDirective(make([]byte, 0, directiveSize(d)), d)
}

func appendDirective(b []byte, d defense.Directive) []byte {
	b = append(b, eventVersion)
	b = bin.MAC(b, d.MAC)
	var flags byte
	if d.HasBearing {
		flags |= 1
	}
	if d.HasPos {
		flags |= 2
	}
	b = append(b, byte(d.Action), byte(d.From), byte(d.To), flags)
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

// DecodeDirective decodes an EncodeDirective payload.
func DecodeDirective(b []byte) (defense.Directive, error) {
	r, ver := openPayload(b)
	d := defense.Directive{MAC: r.MAC(), Action: defense.Action(r.U8()), From: defense.State(r.U8()), To: defense.State(r.U8())}
	flags := r.U8()
	d.HasBearing, d.HasPos = flags&1 != 0, flags&2 != 0
	d.BearingDeg, d.Pos = r.F64(), r.Point()
	d.Score, d.Distance, d.Threshold = r.F64(), r.F64(), r.F64()
	d.TTL = time.Duration(r.U64())
	d.Reporter, d.Stage = r.Str(), r.Str()
	d.Trace = readTrace(&r, ver)
	return d, r.Err
}

// EncodeAck encodes an applied-countermeasure acknowledgement payload:
// the AP name, then the directive payload behind its u16 length.
func EncodeAck(ev AckEvent) []byte {
	n := directiveSize(ev.Directive)
	b := append(make([]byte, 0, 1+2+len(ev.AP)+2+n), eventVersion)
	b = bin.Str(b, ev.AP)
	return appendDirective(bin.U16(b, uint16(n)), ev.Directive)
}

// DecodeAck decodes an EncodeAck payload.
func DecodeAck(b []byte) (AckEvent, error) {
	r, _ := openPayload(b)
	ev := AckEvent{AP: r.Str()}
	inner := r.Bytes(int(r.U16()))
	if r.Err != nil {
		return AckEvent{}, r.Err
	}
	var err error
	ev.Directive, err = DecodeDirective(inner)
	return ev, err
}

// EncodeRelease encodes an operator-release payload.
func EncodeRelease(ev ReleaseEvent) []byte {
	b := append(make([]byte, 0, 1+6+2+len(ev.Source)+8), eventVersion)
	b = bin.MAC(b, ev.MAC)
	b = bin.Str(b, ev.Source)
	return bin.U64(b, ev.Trace)
}

// DecodeRelease decodes an EncodeRelease payload.
func DecodeRelease(b []byte) (ReleaseEvent, error) {
	r, ver := openPayload(b)
	ev := ReleaseEvent{MAC: r.MAC(), Source: r.Str(), Trace: readTrace(&r, ver)}
	return ev, r.Err
}

// SkipEvent is one compaction gap: the run of elided LSNs ends at End
// (inclusive). The carrying record's own LSN is the first elided LSN.
type SkipEvent struct {
	End uint64
}

// EncodeSkip encodes a compaction-gap payload.
func EncodeSkip(ev SkipEvent) []byte {
	return bin.U64(append(make([]byte, 0, 1+8), eventVersion), ev.End)
}

// DecodeSkip decodes an EncodeSkip payload.
func DecodeSkip(b []byte) (SkipEvent, error) {
	r, _ := openPayload(b)
	ev := SkipEvent{End: r.U64()}
	return ev, r.Err
}

// EnrollEvent is one enrollment-table mutation. Digest is the sha256
// of the minted token (the plaintext token is never journalled); an
// empty Digest revokes the name.
type EnrollEvent struct {
	Name   string
	Digest []byte
}

// EncodeEnroll encodes an enrollment-mutation payload.
func EncodeEnroll(ev EnrollEvent) []byte {
	b := append(make([]byte, 0, 1+2+len(ev.Name)+2+len(ev.Digest)), eventVersion)
	b = bin.Str(b, ev.Name)
	return append(bin.U16(b, uint16(len(ev.Digest))), ev.Digest...)
}

// DecodeEnroll decodes an EncodeEnroll payload.
func DecodeEnroll(b []byte) (EnrollEvent, error) {
	r, _ := openPayload(b)
	ev := EnrollEvent{Name: r.Str()}
	if d := r.Bytes(int(r.U16())); len(d) > 0 {
		ev.Digest = append([]byte(nil), d...)
	}
	return ev, r.Err
}

// DecodeEvent decodes a record's payload by its type, returning one of
// ReportEvent, defense.SpoofVerdict, fusion.Decision, defense.Directive,
// AckEvent, ReleaseEvent, SkipEvent, or EnrollEvent.
func DecodeEvent(rec Record) (any, error) {
	switch rec.Type {
	case RecReport:
		return DecodeReport(rec.Data)
	case RecAlert:
		return DecodeAlert(rec.Data)
	case RecDecision:
		return DecodeDecision(rec.Data)
	case RecDirective:
		return DecodeDirective(rec.Data)
	case RecAck:
		return DecodeAck(rec.Data)
	case RecRelease:
		return DecodeRelease(rec.Data)
	case RecSkip:
		return DecodeSkip(rec.Data)
	case RecEnroll:
		return DecodeEnroll(rec.Data)
	default:
		return nil, fmt.Errorf("journal: unknown record type %d", rec.Type)
	}
}

// --- the replay clock ---

// ReplayClock is a switchable time source for the fusion and defense
// engines: Set pins it to a recorded timestamp (recovery and replay
// drive it record by record), Live reverts it to wall time. The zero
// value reads wall time. Safe for concurrent use (engine sweepers read
// it from their tick loops).
type ReplayClock struct {
	ns atomic.Int64
}

// Now returns the pinned instant, or wall time when live.
func (c *ReplayClock) Now() time.Time {
	if n := c.ns.Load(); n != 0 {
		return time.Unix(0, n)
	}
	return time.Now()
}

// Set pins the clock to t.
func (c *ReplayClock) Set(t time.Time) { c.ns.Store(t.UnixNano()) }

// Live reverts the clock to wall time.
func (c *ReplayClock) Live() { c.ns.Store(0) }
