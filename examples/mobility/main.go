// Mobility: the paper's section 5 future work made concrete — a client
// walks through the building transmitting as it goes; three APs
// estimate per-packet bearings and stream them to the fusion
// controller over TCP, which triangulates each transmission, applies
// the virtual fence, and folds the fixes into a live alpha-beta
// mobility track. The walk is replayed against the controller's fused
// decisions, and the final trace state is pulled back over the wire
// with the v2 Query/Tracks exchange (the same data `secureangle
// tracks` prints for a production controller).
//
//	go run ./examples/mobility
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"secureangle/internal/core"
	"secureangle/internal/geom"
	"secureangle/internal/locate"
	"secureangle/internal/netproto"
	"secureangle/internal/ofdm"
	"secureangle/internal/rng"
	"secureangle/internal/testbed"
	"secureangle/internal/track"
)

func main() {
	environment, shell := testbed.Building()
	apPositions := []geom.Point{testbed.AP1, testbed.AP2, testbed.AP3}
	aps := make([]*core.AP, len(apPositions))
	for i, pos := range apPositions {
		fe := testbed.NewAPFrontEnd(testbed.CircularArray(), pos, rng.New(int64(i+1)))
		aps[i] = core.NewAP(fmt.Sprintf("ap%d", i+1), fe, environment, core.DefaultConfig())
	}

	// The fusion controller owns localisation now: bearings go to it
	// over TCP and it maintains the mobility track.
	controller := netproto.NewController(&locate.Fence{Boundary: shell})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	controller.Serve(ln)
	defer controller.Close()
	sub := controller.Subscribe(16)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	agents := make([]*netproto.Agent, len(aps))
	for i, pos := range apPositions {
		agents[i], err = netproto.DialContext(ctx, ln.Addr().String(), netproto.Hello{
			Name: fmt.Sprintf("ap%d", i+1), Pos: pos,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer agents[i].Close()
	}

	// A walk: start near the south-west, pass the pillar, enter the east
	// office. 1.2 m/s, one packet every half second.
	const clientID = 12
	mac := testbed.ClientMAC(clientID)
	path := track.LinearTrace([]geom.Point{
		{X: 3, Y: 3}, {X: 12, Y: 4}, {X: 14, Y: 8}, {X: 19, Y: 7},
	}, 1.2, 0.5)

	fmt.Println("t(s)    truth              controller fix     error(m)")
	for i, wp := range path {
		frame := testbed.UplinkFrame(clientID, uint16(i), []byte("walking"))
		baseband, err := testbed.FrameBaseband(frame, ofdm.QPSK)
		if err != nil {
			log.Fatal(err)
		}
		reported := 0
		for j, ap := range aps {
			rep, err := ap.Observe(wp.Pos, baseband)
			if err != nil {
				continue // blocked or undetected at this AP
			}
			if err := agents[j].SendContext(ctx, netproto.Report{
				APName: fmt.Sprintf("ap%d", j+1), MAC: mac, SeqNo: uint64(i),
				BearingDeg: rep.BearingDeg,
			}); err != nil {
				log.Fatal(err)
			}
			reported++
		}
		if reported < 2 {
			// Too few bearings to fuse: the fusion engine's pending TTL
			// will expire this transmission; the walk coasts.
			fmt.Printf("%-7.1f %-18v %-18s\n", wp.T, wp.Pos, "(insufficient bearings)")
			continue
		}
		select {
		case d := <-sub.C:
			if i%2 == 0 {
				fmt.Printf("%-7.1f %-18v %-18v %.2f\n", wp.T, wp.Pos, d.Pos, d.Pos.Dist(wp.Pos))
			}
		case <-time.After(3 * time.Second):
			fmt.Printf("%-7.1f %-18v %-18s\n", wp.T, wp.Pos, "(no decision)")
		}
	}

	// Pull the finished mobility trace back over the wire: the v2
	// Query/Tracks exchange any connected agent may use.
	states, err := agents[0].QueryTracks(ctx, netproto.Query{MAC: mac})
	if err != nil {
		log.Fatal(err)
	}
	if len(states) == 0 {
		log.Fatal("controller holds no track for the walker")
	}
	ts := states[0]
	final := path[len(path)-1].Pos
	fmt.Printf("\ncontroller track for %s: %d fixes, last fix %v (truth %v, error %.2f m)\n",
		ts.MAC, ts.Fixes, ts.Pos, final, ts.Pos.Dist(final))
	st := controller.Stats()
	fmt.Printf("controller stats: ingested=%d decisions=%d forced=%d expired=%d\n",
		st.Ingested, st.Decisions, st.ForcedTimeouts, st.PendingExpired)
}
