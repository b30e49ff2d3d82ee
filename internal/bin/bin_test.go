package bin

import (
	"encoding/hex"
	"testing"
	"time"

	"secureangle/internal/geom"
	"secureangle/internal/wifi"
)

func TestBinRoundTrip(t *testing.T) {
	mac := wifi.Addr{0x66, 0, 0, 0, 0, 5}
	at := time.Unix(7, 9)
	var b []byte
	b = append(b, 0xfe)
	b = U16(b, 0x0102)
	b = U32(b, 0x03040506)
	b = U64(b, 0x0708090a0b0c0d0e)
	b = F64(b, 1)
	b = Point(b, geom.Point{X: 2, Y: -2})
	b = MAC(b, mac)
	b = Bool(b, true)
	b = Bool(b, false)
	b = Str(b, "ap1")
	b = Time(b, at)
	const want = "fe" + "0102" + "03040506" + "0708090a0b0c0d0e" + "3ff0000000000000" +
		"4000000000000000c000000000000000" + "660000000005" + "01" + "00" + "0003617031" + "00000001a13b8609"
	if got := hex.EncodeToString(b); got != want {
		t.Fatalf("encoded\n%s\nwant\n%s", got, want)
	}

	r := NewReader(b)
	if r.U8() != 0xfe || r.U16() != 0x0102 || r.U32() != 0x03040506 || r.U64() != 0x0708090a0b0c0d0e ||
		r.F64() != 1 || r.Point() != (geom.Point{X: 2, Y: -2}) || r.MAC() != mac ||
		!r.Bool() || r.Bool() || r.Str() != "ap1" || !r.Time().Equal(at) {
		t.Fatal("decoded fields differ")
	}
	if r.Err != nil || r.Len() != 0 {
		t.Fatalf("after a full read: Err %v, %d bytes left", r.Err, r.Len())
	}
}

// TestBinShortReadEmptiesInput: the first short read sets Err and
// drops the rest of the input, so every later read, however short,
// returns a zero value.
func TestBinShortReadEmptiesInput(t *testing.T) {
	r := NewReader([]byte{0, 5, 'a', 'b', 1})
	if s := r.Str(); s != "" || r.Err != ErrShort {
		t.Fatalf("Str over a 3-byte body = %q, Err %v", s, r.Err)
	}
	if r.Len() != 0 || r.U8() != 0 || r.Bool() || r.MAC() != (wifi.Addr{}) || r.Bytes(0) != nil {
		t.Fatal("reads after a short read returned data")
	}
	if r.Err != ErrShort {
		t.Fatalf("Err = %v", r.Err)
	}

	neg := NewReader([]byte{1, 2, 3})
	if neg.Bytes(-1) != nil || neg.Err != ErrShort {
		t.Fatal("Bytes(-1) did not fail")
	}
}

// TestBinBytesClipsCapacity: a slice Bytes returns cannot be appended
// into the bytes that follow it.
func TestBinBytesClipsCapacity(t *testing.T) {
	buf := []byte{1, 2, 3, 4}
	r := NewReader(buf)
	head := r.Bytes(2)
	if cap(head) != 2 {
		t.Fatalf("cap = %d, want 2", cap(head))
	}
	_ = append(head, 9)
	if buf[2] != 3 {
		t.Fatal("append through Bytes overwrote the input")
	}
}
