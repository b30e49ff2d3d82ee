// Package bin owns the primitive byte encoding every SecureAngle binary
// format shares: big-endian integers, float64 as its IEEE-754 bits,
// u16-length-prefixed strings, 6-byte MAC addresses, (x, y) points and
// unix-nanosecond times. The wire frames, the journal event payloads
// and the engine snapshots each keep their own layout and version byte;
// they read and write their fields through this package.
//
// Encoding is a set of append helpers. Decoding is a Reader: a value
// type whose first short read sets Err and empties the input, so every
// later read fails its own length check and returns a zero value. A
// decoder reads its fields in order and checks Err once at the end.
package bin

import (
	"encoding/binary"
	"errors"
	"math"
	"time"

	"secureangle/internal/geom"
	"secureangle/internal/wifi"
)

// U16 appends v big endian.
func U16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }

// U32 appends v big endian.
func U32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

// U64 appends v big endian.
func U64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// F64 appends the IEEE-754 bits of v.
func F64(b []byte, v float64) []byte { return U64(b, math.Float64bits(v)) }

// Point appends p.X then p.Y.
func Point(b []byte, p geom.Point) []byte { return F64(F64(b, p.X), p.Y) }

// MAC appends the six address bytes.
func MAC(b []byte, a wifi.Addr) []byte { return append(b, a[:]...) }

// Bool appends 1 for true, 0 for false.
func Bool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Str appends s behind its u16 length; the caller keeps len(s) within
// 65535.
func Str(b []byte, s string) []byte { return append(U16(b, uint16(len(s))), s...) }

// Time appends t as unix nanoseconds.
func Time(b []byte, t time.Time) []byte { return U64(b, uint64(t.UnixNano())) }

// ErrShort is the Err of a Reader that ran out of input.
var ErrShort = errors.New("bin: truncated input")

// Reader decodes fields in order from a byte slice. Keep it a local
// value (not a pointer) so it stays on the stack.
type Reader struct {
	b []byte
	// Err is the first error: ErrShort once a read has run past the end
	// of the input. A Reader{Err: err} has no input and keeps err, so a
	// decoder can fail before its first field and still check Err once.
	Err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Len returns the number of unread bytes (0 after a short read).
func (r *Reader) Len() int { return len(r.b) }

// fail records a short read and empties the input.
func (r *Reader) fail() {
	if r.Err == nil {
		r.Err = ErrShort
	}
	r.b = nil
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Bool reads one byte as nonzero.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	if len(r.b) < 2 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Point reads X then Y.
func (r *Reader) Point() geom.Point { return geom.Point{X: r.F64(), Y: r.F64()} }

// MAC reads six address bytes.
func (r *Reader) MAC() wifi.Addr {
	var a wifi.Addr
	if len(r.b) < len(a) {
		r.fail()
		return a
	}
	copy(a[:], r.b)
	r.b = r.b[len(a):]
	return a
}

// Time reads unix nanoseconds.
func (r *Reader) Time() time.Time { return time.Unix(0, int64(r.U64())) }

// Bytes reads the next n bytes. The result aliases the input with its
// capacity clipped to n, so appending to it cannot overwrite the bytes
// after it. A negative n is a short read.
func (r *Reader) Bytes(n int) []byte {
	if n < 0 || len(r.b) < n {
		r.fail()
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// Str reads a u16-length-prefixed string.
func (r *Reader) Str() string { return string(r.Bytes(int(r.U16()))) }
