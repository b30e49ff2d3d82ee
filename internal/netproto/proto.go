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
// token) answered by Welcome; the agent then streams Report and
// ReportBatch bearings and Alert spoof flags, may send Ping, Query, and
// Directive acks or release requests, and receives Alert and Directive
// broadcasts and Tracks/Threats query replies. A warm standby follows
// the controller's journal with SegmentAck/Segment (replication.go).
package netproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"secureangle/internal/geom"
	"secureangle/internal/signature"
	"secureangle/internal/wifi"
)

// Message type identifiers.
const (
	TypeHello       = 1
	TypeReport      = 2
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
const ProtoVersion = 5

// MaxMessageSize bounds a single message (a signature over a 0.25-degree
// 360 grid is ~23 KB; 1 MB leaves ample margin while stopping hostile
// length prefixes from ballooning allocations).
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
	// Sig may be nil when only the bearing is reported.
	Sig *signature.Signature
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

// writeString appends a uint16-length-prefixed string.
func writeString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func readString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, ErrBadMessage
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, ErrBadMessage
	}
	return string(b[:n]), b[n:], nil
}

// MarshalHello encodes a Hello message body (without the length
// prefix).
func MarshalHello(h Hello) []byte {
	b := []byte{TypeHello}
	b = writeString(b, h.Name)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(h.Pos.X))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(h.Pos.Y))
	b = binary.BigEndian.AppendUint16(b, ProtoVersion)
	return writeString(b, h.Token)
}

// MarshalWelcome encodes a Welcome message body.
func MarshalWelcome(w Welcome) []byte {
	b := []byte{TypeWelcome}
	b = binary.BigEndian.AppendUint16(b, ProtoVersion)
	return append(b, w.Status)
}

// MarshalReport encodes a Report message body: the report body, then
// its trace ID.
func MarshalReport(r Report) []byte {
	b := appendReportBody([]byte{TypeReport}, r)
	return binary.BigEndian.AppendUint64(b, r.Trace)
}

// appendReportBody appends one report's self-delimiting wire form.
func appendReportBody(b []byte, r Report) []byte {
	b = writeString(b, r.APName)
	b = append(b, r.MAC[:]...)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.BearingDeg))
	b = binary.BigEndian.AppendUint64(b, r.SeqNo)
	if r.Sig != nil {
		sig := r.Sig.Marshal()
		b = binary.BigEndian.AppendUint32(b, uint32(len(sig)))
		b = append(b, sig...)
	} else {
		b = binary.BigEndian.AppendUint32(b, 0)
	}
	return b
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
	b := []byte{TypeReportBatch}
	b = binary.BigEndian.AppendUint32(b, uint32(len(rs)))
	for _, r := range rs {
		b = appendReportBody(b, r)
	}
	for _, r := range rs {
		b = binary.BigEndian.AppendUint64(b, r.Trace)
	}
	return b
}

// readReportBody parses one report from b, returning the remainder.
func readReportBody(b []byte) (Report, []byte, error) {
	var r Report
	name, rest, err := readString(b)
	if err != nil {
		return r, nil, err
	}
	if len(rest) < 6+8+8+4 {
		return r, nil, ErrBadMessage
	}
	r.APName = name
	copy(r.MAC[:], rest[:6])
	rest = rest[6:]
	r.BearingDeg = math.Float64frombits(binary.BigEndian.Uint64(rest[0:8]))
	r.SeqNo = binary.BigEndian.Uint64(rest[8:16])
	sigLen := int(binary.BigEndian.Uint32(rest[16:20]))
	rest = rest[20:]
	if sigLen > 0 {
		if len(rest) < sigLen {
			return r, nil, ErrBadMessage
		}
		sig, err := signature.Unmarshal(rest[:sigLen])
		if err != nil {
			return r, nil, fmt.Errorf("netproto: %w", err)
		}
		r.Sig = sig
		rest = rest[sigLen:]
	}
	return r, rest, nil
}

// Unmarshal decodes a message body into the frame type its first byte
// names.
func Unmarshal(b []byte) (any, error) {
	if len(b) < 1 {
		return nil, ErrBadMessage
	}
	switch b[0] {
	case TypeHello:
		name, rest, err := readString(b[1:])
		if err != nil {
			return nil, err
		}
		if len(rest) < 18 || binary.BigEndian.Uint16(rest[16:18]) != ProtoVersion {
			return nil, ErrBadMessage
		}
		token, tail, err := readString(rest[18:])
		if err != nil || len(tail) != 0 {
			return nil, ErrBadMessage
		}
		return Hello{
			Name: name,
			Pos: geom.Point{
				X: math.Float64frombits(binary.BigEndian.Uint64(rest[0:8])),
				Y: math.Float64frombits(binary.BigEndian.Uint64(rest[8:16])),
			},
			Token: token,
		}, nil
	case TypeWelcome:
		if len(b) != 4 || binary.BigEndian.Uint16(b[1:3]) != ProtoVersion {
			return nil, ErrBadMessage
		}
		return Welcome{Status: b[3]}, nil
	case TypePing:
		if len(b) != 1 {
			return nil, ErrBadMessage
		}
		return Ping{}, nil
	case TypeReport:
		r, rest, err := readReportBody(b[1:])
		if err != nil {
			return nil, err
		}
		if len(rest) != 8 {
			return nil, ErrBadMessage
		}
		r.Trace = binary.BigEndian.Uint64(rest)
		return r, nil
	case TypeReportBatch:
		rest := b[1:]
		if len(rest) < 4 {
			return nil, ErrBadMessage
		}
		// Validate the count in uint64 before any int conversion: on
		// 32-bit builds a hostile count >= 2^31 would wrap negative and
		// slip past the bound only to panic in make. A report body is at
		// least 2+6+8+8+4 bytes, so a genuine count can never exceed the
		// body length it must be backed by.
		count64 := uint64(binary.BigEndian.Uint32(rest[:4]))
		rest = rest[4:]
		if count64 > uint64(len(rest)/(2+6+8+8+4)) {
			return nil, ErrBadMessage
		}
		count := int(count64)
		batch := make(ReportBatch, 0, count)
		for i := 0; i < count; i++ {
			var r Report
			var err error
			r, rest, err = readReportBody(rest)
			if err != nil {
				return nil, err
			}
			batch = append(batch, r)
		}
		if len(rest) != 8*count {
			return nil, ErrBadMessage
		}
		for i := range batch {
			batch[i].Trace = binary.BigEndian.Uint64(rest[8*i:])
		}
		return batch, nil
	case TypeAlert:
		return unmarshalAlert(b[1:])
	case TypeQuery:
		return unmarshalQuery(b[1:])
	case TypeTrack:
		return unmarshalTracks(b[1:])
	case TypeDirective:
		return unmarshalDirective(b[1:])
	case TypeThreat:
		return unmarshalThreats(b[1:])
	case TypeSegment:
		return unmarshalSegment(b[1:])
	case TypeSegmentAck:
		return unmarshalSegmentAck(b[1:])
	default:
		return nil, fmt.Errorf("netproto: unknown message type %d", b[0])
	}
}

// frameKeep is the largest buffer a write pool, session outbox or read
// loop keeps for reuse; larger frames get one-off buffers.
const frameKeep = 64 << 10

var framePool = sync.Pool{New: func() any { return new([]byte) }}

func appendFrame(b, body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(b, uint32(len(body))), body...)
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
