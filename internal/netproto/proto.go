// Package netproto is the system-level glue of section 2.3: SecureAngle
// APs stream per-packet AoA reports to a controller over TCP, and the
// controller fuses bearings from multiple APs into client locations and
// virtual-fence decisions.
//
// Wire format: length-prefixed binary messages, big endian throughout.
// Each message is
//
//	uint32 length (of everything after this field)
//	uint8  type
//	...    type-specific body
//
// A session opens with Hello (the AP's name, position and enrollment
// token) answered by Welcome; the agent then streams ReportBatch
// bearings and Alert spoof flags, may send Ping, Query, and
// Directive acks or release requests, and receives Alert and Directive
// broadcasts and Tracks/Threats query replies. A warm standby follows
// the controller's journal with SegmentAck/Segment (replication.go).
package netproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"secureangle/internal/bin"
	"secureangle/internal/geom"
	"secureangle/internal/wifi"
)

// Message type identifiers. Type 2 (the v5 single-report frame) is
// unassigned: a report travels as a ReportBatch of one.
const (
	TypeHello       = 1
	TypeReportBatch = 4
	TypeWelcome     = 5
	TypePing        = 6
	TypeQuery       = 7
	TypeTrack       = 8
	TypeDirective   = 9
	TypeThreat      = 10
	TypeSegment     = 11
	TypeSegmentAck  = 12
)

// ProtoVersion is the one wire version this build speaks. Hello and
// Welcome carry it, so a peer built for another version is refused at
// the handshake rather than left to misparse later frames.
const ProtoVersion = 6

// MaxMessageSize bounds a single message: large Tracks/Threats replies
// and report batches are chunked under it, and it stops hostile length
// prefixes from ballooning allocations.
const MaxMessageSize = 1 << 20

// Hello announces an AP to the controller; it must be a session's
// first frame. An empty Name makes the session an observer: it
// receives broadcasts and may query tracks, but is not registered as a
// bearing source (the `secureangle tracks` CLI connects this way).
type Hello struct {
	Name string
	Pos  geom.Point
	// Token is the enrollment bearer token (empty for agents
	// connecting to an auth-optional controller).
	Token string
}

// Welcome status codes.
const (
	// WelcomeOK: the session is accepted.
	WelcomeOK = 0
	// WelcomeAuthRejected: the Hello's token was missing, unknown, or
	// revoked and the controller requires authentication. The
	// controller closes the connection after sending it.
	WelcomeAuthRejected = 1
)

// Welcome is the controller's reply to a Hello.
type Welcome struct {
	// Status is WelcomeOK or WelcomeAuthRejected.
	Status uint8
}

// Ping is an agent keepalive: the controller drops connections that
// stay silent past its read deadline, so an agent with nothing to
// report (listen-only fence nodes between transmissions) pings within
// Controller.ReadTimeout to stay registered. The controller ignores the
// body — reading the frame is what resets the deadline.
type Ping struct{}

// MarshalPing encodes a Ping message body.
func MarshalPing() []byte { return []byte{TypePing} }

// Report is one packet observation from one AP.
type Report struct {
	APName     string
	MAC        wifi.Addr
	BearingDeg float64
	// SeqNo correlates reports of the same transmission across APs.
	SeqNo uint64
	// Trace is the trace ID minted at the observing AP (zero when
	// untraced).
	Trace uint64
}

var (
	// ErrTooLarge reports a message exceeding MaxMessageSize.
	ErrTooLarge = errors.New("netproto: message too large")
	// ErrBadMessage reports a malformed body.
	ErrBadMessage = errors.New("netproto: malformed message")
)

// MarshalHello encodes a Hello message body (without the length
// prefix).
func MarshalHello(h Hello) []byte {
	b := bin.Str([]byte{TypeHello}, h.Name)
	b = bin.Point(b, h.Pos)
	b = bin.U16(b, ProtoVersion)
	return bin.Str(b, h.Token)
}

// MarshalWelcome encodes a Welcome message body.
func MarshalWelcome(w Welcome) []byte {
	return append(bin.U16([]byte{TypeWelcome}, ProtoVersion), w.Status)
}

// appendReportBody appends one report's self-delimiting wire form:
// name, MAC, bearing and sequence number.
func appendReportBody(b []byte, r Report) []byte {
	b = bin.Str(b, r.APName)
	b = bin.MAC(b, r.MAC)
	b = bin.F64(b, r.BearingDeg)
	return bin.U64(b, r.SeqNo)
}

// ReportBatch is several observations shipped as one framed message — the
// batch pipeline's ObserveBatch output crosses the wire in one write
// instead of one syscall per packet.
type ReportBatch []Report

// MarshalReportBatch encodes a ReportBatch message body: the count,
// the report bodies, then one 8-byte trace ID per report in report
// order. The caller must keep the result under MaxMessageSize
// (Agent.SendBatch chunks automatically).
func MarshalReportBatch(rs []Report) []byte {
	b := bin.U32([]byte{TypeReportBatch}, uint32(len(rs)))
	for _, r := range rs {
		b = appendReportBody(b, r)
	}
	for _, r := range rs {
		b = bin.U64(b, r.Trace)
	}
	return b
}

// readReportBody reads one report body from r; short reads surface in
// r.Err.
func readReportBody(r *bin.Reader) Report {
	return Report{APName: r.Str(), MAC: r.MAC(), BearingDeg: r.F64(), SeqNo: r.U64()}
}

// readReportBatch reads a ReportBatch body: the count, the report
// bodies, then one trace ID per report.
func readReportBatch(r *bin.Reader) (ReportBatch, error) {
	// Validate the count in uint64 before any int conversion: on 32-bit
	// builds a hostile count >= 2^31 would wrap negative and slip past
	// the bound only to panic in make. A report body is at least
	// 2+6+8+8 bytes, so a genuine count can never exceed the body
	// length it must be backed by.
	count64 := uint64(r.U32())
	if count64 > uint64(r.Len()/(2+6+8+8)) {
		return nil, ErrBadMessage
	}
	batch := make(ReportBatch, count64)
	for i := range batch {
		batch[i] = readReportBody(r)
	}
	if r.Len() != 8*len(batch) {
		return nil, ErrBadMessage
	}
	for i := range batch {
		batch[i].Trace = r.U64()
	}
	return batch, nil
}

// Unmarshal decodes a message body into the frame type its first byte
// names. Every field must be in bounds and the frame consumed exactly.
func Unmarshal(b []byte) (any, error) {
	if len(b) < 1 {
		return nil, ErrBadMessage
	}
	r := bin.NewReader(b[1:])
	var msg any
	var err error
	switch b[0] {
	case TypeHello:
		h := Hello{Name: r.Str(), Pos: r.Point()}
		if r.U16() != ProtoVersion {
			return nil, ErrBadMessage
		}
		h.Token = r.Str()
		msg = h
	case TypeWelcome:
		if r.U16() != ProtoVersion {
			return nil, ErrBadMessage
		}
		msg = Welcome{Status: r.U8()}
	case TypePing:
		msg = Ping{}
	case TypeReportBatch:
		msg, err = readReportBatch(&r)
	case TypeAlert:
		msg = readAlert(&r)
	case TypeQuery:
		msg = readQuery(&r)
	case TypeTrack:
		msg, err = readTracks(&r)
	case TypeDirective:
		msg = readDirective(&r)
	case TypeThreat:
		msg, err = readThreats(&r)
	case TypeSegment:
		msg, err = readSegment(&r, nil)
	case TypeSegmentAck:
		msg, err = readSegmentAck(&r)
	default:
		return nil, fmt.Errorf("netproto: unknown message type %d", b[0])
	}
	if err == nil && (r.Err != nil || r.Len() != 0) {
		err = ErrBadMessage
	}
	if err != nil {
		return nil, err
	}
	return msg, nil
}

// frameKeep is the largest buffer a write pool, session outbox or read
// loop keeps for reuse; larger frames get one-off buffers.
const frameKeep = 64 << 10

var framePool = sync.Pool{New: func() any { return new([]byte) }}

func appendFrame(b, body []byte) []byte {
	return append(bin.U32(b, uint32(len(body))), body...)
}

// WriteMessage frames and writes one message body with one Write: the
// length prefix and the body share a pooled buffer.
func WriteMessage(w io.Writer, body []byte) error {
	if len(body) > MaxMessageSize {
		return ErrTooLarge
	}
	bp := framePool.Get().(*[]byte)
	frame := appendFrame((*bp)[:0], body)
	_, err := w.Write(frame)
	if cap(frame) <= frameKeep {
		*bp = frame
	}
	framePool.Put(bp)
	return err
}

// ReadMessage reads one length-prefixed message body.
func ReadMessage(r io.Reader) ([]byte, error) {
	return ReadMessageBuf(r, nil)
}

// ReadMessageBuf reads one length-prefixed message body into buf when
// it fits, allocating only when it does not — the session read loops'
// zero-alloc steady state. The returned slice aliases buf; it is valid
// until the next ReadMessageBuf call with the same buffer.
func ReadMessageBuf(r io.Reader, buf []byte) ([]byte, error) {
	hdr := append(buf[:0], 0, 0, 0, 0)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxMessageSize {
		return nil, ErrTooLarge
	}
	body := buf
	if uint32(cap(body)) < n {
		body = make([]byte, n)
	}
	body = body[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}
