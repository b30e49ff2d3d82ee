package secureangle

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"secureangle/internal/netproto"
	"secureangle/internal/testbed"
)

// TestNoGoroutineLeaks: every long-lived handle gives back the
// goroutines it starts once shut down — a Stream by Close and by its
// context's cancellation, and a serving Controller with a connected
// Agent by closing both. The count must fall back to where it was
// before the handles opened (goroutines that earlier tests left
// winding down only lower it).
func TestNoGoroutineLeaks(t *testing.T) {
	base := runtime.NumGoroutine()

	ap := testAP(t, "leak", 1)
	client, err := Client(5)
	if err != nil {
		t.Fatal(err)
	}
	item, err := TestbedBatchItem(client, 1)
	if err != nil {
		t.Fatal(err)
	}
	// submit pushes item through s and drains its Results in the
	// background; the returned channel closes when Results does.
	submit := func(ctx context.Context, s *Stream) <-chan struct{} {
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for range s.Results() {
			}
		}()
		if _, err := s.Submit(ctx, item); err != nil {
			t.Fatal(err)
		}
		return drained
	}

	// A stream shut down by Close under a context that never ends.
	s := ap.Stream(context.Background(), 4)
	drained := submit(context.Background(), s)
	s.Close()
	<-drained

	// A stream shut down by cancelling its context.
	ctx, cancel := context.WithCancel(context.Background())
	s = ap.Stream(ctx, 4)
	drained = submit(ctx, s)
	cancel()
	<-drained

	// A serving controller with one agent session that sends a report.
	_, shell := Testbed()
	c := NewController(&Fence{Boundary: shell})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.Serve(ln)
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	a, err := netproto.DialContext(dctx, ln.Addr().String(), netproto.Hello{Name: "ap1", Pos: AP1})
	dcancel()
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	if err := a.Send(netproto.Report{APName: "ap1", MAC: testbed.ClientMAC(5), SeqNo: 1, BearingDeg: 10}); err != nil {
		t.Error(err)
	}
	a.Close()
	c.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines still running, %d before the handles opened:\n%s", n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
