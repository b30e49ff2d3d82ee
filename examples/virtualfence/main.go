// Virtualfence: the section 2.3.1 application end to end, on the v2
// Node facade. Three nodes each run the full physical-layer pipeline on
// every transmission, stream their direct-path bearings to a fusion
// controller over loopback TCP, and the controller triangulates and
// applies the building-boundary fence: inside clients are allowed, an
// outside intruder's frames are dropped — and with the defense engine
// in the loop, repeated drops escalate the intruder into quarantine,
// broadcast to every AP as a typed directive.
//
//	go run ./examples/virtualfence
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"secureangle"
	"secureangle/internal/netproto"
	"secureangle/internal/ofdm"
	"secureangle/internal/testbed"
)

func main() {
	ctx := context.Background()

	// Controller with the building shell as the fence boundary. The 1.5 m
	// margin absorbs the localisation error of poorly-conditioned
	// geometries (an outside transmitter seen by two nearly-collinear
	// APs can triangulate just inside the wall). The defense policy
	// weighs a fence breach at twice the quarantine threshold, so a
	// single fused drop escalates — even a geometry-forced one, which
	// the engine discounts by half.
	_, shell := secureangle.Testbed()
	controller := secureangle.NewController(&secureangle.Fence{Boundary: shell, MarginM: 1.5})
	controller.DefensePolicy = secureangle.DefensePolicy{FenceWeight: 4}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	controller.Serve(ln)
	defer controller.Close()
	// Any number of consumers can subscribe to the fused decisions.
	decisions := controller.Subscribe(16)
	defer controller.Unsubscribe(decisions)
	fmt.Printf("fence controller on %s\n\n", ln.Addr())

	// Three full nodes (array + calibration + MUSIC pipeline) on the v2
	// constructor, each with its own agent session to the controller.
	apPositions := []secureangle.Point{secureangle.AP1, secureangle.AP2, secureangle.AP3}
	nodes := make([]*secureangle.Node, len(apPositions))
	agents := make([]*netproto.Agent, len(apPositions))
	for i, pos := range apPositions {
		name := fmt.Sprintf("ap%d", i+1)
		nodes[i], err = secureangle.New(
			secureangle.WithName(name),
			secureangle.WithPosition(pos),
			secureangle.WithSeed(int64(100+i)),
		)
		if err != nil {
			log.Fatal(err)
		}
		// DialContext sends the Hello and waits for the controller's
		// Welcome before any report goes out.
		dialCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		agents[i], err = netproto.DialContext(dialCtx, ln.Addr().String(), netproto.Hello{Name: name, Pos: pos})
		cancel()
		if err != nil {
			log.Fatal(err)
		}
		agents[i].Timeout = 5 * time.Second // deadline-aware sends
		defer agents[i].Close()
	}
	// ap1 listens for defense directives — the countermeasure loop.
	directives := agents[0].Directives()

	// transmit pushes one frame through every node's pipeline and ships
	// the resulting bearing reports to the controller.
	var seq uint64
	transmit := func(label string, clientID int, pos secureangle.Point) {
		seq++
		fmt.Printf("%s transmits (seq %d)\n", label, seq)
		frame := testbed.UplinkFrame(clientID, uint16(seq), []byte("fence demo"))
		baseband, err := testbed.FrameBaseband(frame, ofdm.QPSK)
		if err != nil {
			log.Fatal(err)
		}
		heard := 0
		for i, n := range nodes {
			rep, err := n.Observe(ctx, pos, baseband)
			if err != nil {
				fmt.Printf("  ap%d: cannot hear the client (%v)\n", i+1, err)
				continue
			}
			fmt.Printf("  %s: bearing %.1f deg\n", rep.AP, rep.BearingDeg)
			if err := agents[i].SendContext(ctx, netproto.Report{
				APName: rep.AP, MAC: frame.Addr2, SeqNo: seq, BearingDeg: rep.BearingDeg,
			}); err != nil {
				log.Fatal(err)
			}
			heard++
		}
		if heard < 2 {
			fmt.Printf("  controller: no decision possible — fewer than 2 APs heard the packet (fail closed)\n\n")
			return
		}
		d := <-decisions.C
		fmt.Printf("  controller: %s — located at %v (truth %v, error %.2f m)\n\n",
			d.Decision, d.Pos, pos, d.Pos.Dist(pos))
	}

	// Inside clients from three different rooms.
	for _, id := range []int{5, 2, 17} {
		c, err := secureangle.Client(id)
		if err != nil {
			log.Fatal(err)
		}
		transmit(fmt.Sprintf("client %d (%s)", id, c.Room), id, c.Pos)
	}

	// An intruder in the car park outside the west wall: the fused drop
	// pushes its threat score over the quarantine bar.
	intruder := testbed.OutsidePositions()[0]
	transmit("intruder (outside west wall)", 99, intruder)

	select {
	case d := <-directives:
		fmt.Printf("defense: %s directive for %s (score %.2f) — every AP now drops its frames\n",
			d.Action, d.MAC, d.Score)
		if cm, err := nodes[0].ApplyDirective(d.Directive); err == nil {
			fmt.Printf("defense: ap1 applied countermeasure %s\n", cm.Action)
		}
	case <-time.After(5 * time.Second):
		fmt.Println("defense: no directive (intruder unheard by 2+ APs)")
	}
}
