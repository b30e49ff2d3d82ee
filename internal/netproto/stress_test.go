package netproto

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"secureangle/internal/geom"
	"secureangle/internal/locate"
	"secureangle/internal/wifi"
)

// TestControllerConcurrentAgents hammers the controller with many agents
// reporting many transmissions concurrently and checks every fusable
// transmission yields exactly one decision.
func TestControllerConcurrentAgents(t *testing.T) {
	fence := &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)}
	c := NewController(fence)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.Serve(ln)
	defer c.Close()
	sub := c.Subscribe(64)

	const nAPs = 6
	const nTx = 50
	apPos := make([]geom.Point, nAPs)
	agents := make([]*Agent, nAPs)
	for i := 0; i < nAPs; i++ {
		apPos[i] = geom.Point{X: float64(i * 4), Y: float64((i % 3) * 7)}
		a := dialAP(t, ln.Addr().String(), Hello{Name: fmt.Sprintf("ap%d", i), Pos: apPos[i]})
		defer a.Close()
		agents[i] = a
	}
	// Give the controller a moment to register all Hellos before reports
	// arrive (reports from unregistered APs are dropped by design).
	time.Sleep(100 * time.Millisecond)

	// Each transmission is seen by all APs; agents send concurrently.
	targets := make([]geom.Point, nTx)
	for i := range targets {
		targets[i] = geom.Point{X: 2 + float64(i%20), Y: 2 + float64(i%12)}
	}
	var wg sync.WaitGroup
	for ai, a := range agents {
		wg.Add(1)
		go func(ai int, a *Agent) {
			defer wg.Done()
			for seq, target := range targets {
				r := Report{
					APName:     fmt.Sprintf("ap%d", ai),
					MAC:        wifi.Addr{0, 0, 0, 0, 0, byte(seq)},
					SeqNo:      uint64(seq),
					BearingDeg: geom.BearingDeg(apPos[ai], target),
				}
				if err := a.Send(r); err != nil {
					t.Errorf("agent %d: %v", ai, err)
					return
				}
			}
		}(ai, a)
	}
	wg.Wait()

	got := map[uint64]FenceDecision{}
	timeout := time.After(10 * time.Second)
	for len(got) < nTx {
		select {
		case d, ok := <-sub.C:
			if !ok {
				t.Fatalf("decisions channel closed with %d/%d", len(got), nTx)
			}
			if _, dup := got[d.SeqNo]; dup {
				t.Fatalf("duplicate decision for seq %d", d.SeqNo)
			}
			got[d.SeqNo] = d
		case <-timeout:
			t.Fatalf("timeout with %d/%d decisions", len(got), nTx)
		}
	}
	// Every decision localises its target accurately and allows it
	// (all targets are inside).
	for seq, d := range got {
		want := targets[seq]
		if d.Pos.Dist(want) > 0.5 {
			t.Errorf("seq %d localised at %v, want %v", seq, d.Pos, want)
		}
		if d.Decision != locate.Allow {
			t.Errorf("seq %d dropped", seq)
		}
		if len(d.APs) < 2 {
			t.Errorf("seq %d fused from %d APs", seq, len(d.APs))
		}
	}
}

// TestAgentConcurrentSend checks Agent.Send is safe under concurrent use
// (the mutex must serialise frames; interleaved writes would corrupt the
// length-prefixed stream).
func TestAgentConcurrentSend(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	done := make(chan error, 1)
	const n = 200
	go func() {
		// Read Hello + n reports off the pipe, answering the Hello with
		// the Welcome; any framing corruption surfaces as a decode error.
		for i := 0; i <= n; i++ {
			body, err := ReadMessage(server)
			if err != nil {
				done <- err
				return
			}
			if _, err := Unmarshal(body); err != nil {
				done <- err
				return
			}
			if i == 0 {
				if err := WriteMessage(server, MarshalWelcome(Welcome{Status: WelcomeOK})); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()

	a, err := NewAgentContext(context.Background(), client, Hello{Name: "stress", Pos: geom.Point{}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n/8; i++ {
				r := Report{APName: "stress", SeqNo: uint64(g*1000 + i), BearingDeg: float64(i)}
				if err := a.Send(r); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stream corrupted: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader hung")
	}
}
