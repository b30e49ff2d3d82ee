// Spoofdetect: the section 2.3.2 application. The AP trains on a
// legitimate client's AoA signature, keeps accepting that client
// through normal channel noise, and flags an attacker who
// transmits with the victim's MAC address from a different location —
// including an attacker whose directional antenna defeats the RSS
// signalprint baseline. The scored verdicts show the margin of every
// call: how much drift headroom a clean packet had, and how far past
// the threshold the spoofed ones landed.
//
//	go run ./examples/spoofdetect
package main

import (
	"context"
	"fmt"
	"log"

	"secureangle"
	"secureangle/internal/baseline"
	"secureangle/internal/ofdm"
	"secureangle/internal/testbed"
)

func main() {
	ctx := context.Background()
	ap, err := secureangle.New(secureangle.WithName("ap1"), secureangle.WithSeed(11))
	if err != nil {
		log.Fatal(err)
	}

	victim, err := secureangle.Client(5)
	if err != nil {
		log.Fatal(err)
	}
	attackerPos, err := secureangle.Client(9) // across the room
	if err != nil {
		log.Fatal(err)
	}

	// Training stage: the first frame from this MAC enrolls its
	// signature Scl.
	train := testbed.UplinkFrame(victim.ID, 0, []byte("association"))
	if _, err := ap.ProcessFrameContext(ctx, victim.Pos, train, ofdm.QPSK); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained signature for %s (client %d at %v)\n\n",
		testbed.ClientMAC(victim.ID), victim.ID, victim.Pos)

	// Normal traffic: accepted, signature tracked. Margin() is the
	// headroom left before the drift would be flagged.
	fmt.Println("legitimate traffic:")
	for seq := uint16(1); seq <= 5; seq++ {
		f := testbed.UplinkFrame(victim.ID, seq, []byte("normal data"))
		fr, err := ap.ProcessFrameContext(ctx, victim.Pos, f, ofdm.QPSK)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  seq %d: %-6s (distance %.4f, margin %+.4f)\n",
			seq, fr.Decision, fr.Distance, fr.Verdict().Margin())
	}

	// The attack: same MAC, different location.
	fmt.Println("\nattacker spoofing the victim's MAC from across the room:")
	for seq := uint16(100); seq < 103; seq++ {
		f := testbed.UplinkFrame(victim.ID, seq, []byte("injected"))
		fr, err := ap.ProcessFrameContext(ctx, attackerPos.Pos, f, ofdm.QPSK)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  seq %d: %-6s (distance %.4f, margin %+.4f)\n",
			seq, fr.Decision, fr.Distance, fr.Verdict().Margin())
	}

	// Who was it really? Rank the registry by signature distance: the
	// attack frames' physical signature matches the attacker's own
	// enrolled station.
	if _, err := ap.ProcessFrameContext(ctx, attackerPos.Pos, testbed.UplinkFrame(attackerPos.ID, 1, nil), ofdm.QPSK); err != nil {
		log.Fatal(err)
	}
	lastSpoof := testbed.UplinkFrame(victim.ID, 200, []byte("injected"))
	fr, err := ap.ProcessFrameContext(ctx, attackerPos.Pos, lastSpoof, ofdm.QPSK)
	if err != nil {
		log.Fatal(err)
	}
	ids, err := ap.Identify(fr.Sig)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwho does the flagged signature actually match?")
	for _, id := range ids {
		fmt.Printf("  %s  distance %.4f\n", id.MAC, id.Distance)
	}

	// The RSS baseline against a directional-antenna attacker.
	fmt.Println("\nRSS signalprint baseline vs a 20 dB directional antenna:")
	victimPrint := baseline.FromPowers(testbed.RSSPowers(ap.Env, victim.Pos))
	attackerPrint := baseline.FromPowers(testbed.RSSPowers(ap.Env, attackerPos.Pos))
	atk := baseline.DirectionalAttacker{MaxGainDB: 20, ErrorDB: 1}
	forged, err := atk.ForgePrint(victimPrint, attackerPrint)
	if err != nil {
		log.Fatal(err)
	}
	match, err := baseline.DefaultMatcher().Matches(victimPrint, forged)
	if err != nil {
		log.Fatal(err)
	}
	diff, _ := baseline.Distance(victimPrint, forged)
	fmt.Printf("  forged print accepted by RSS matcher: %v (worst per-AP diff %.1f dB)\n", match, diff)
	fmt.Println("  -> RSS identification subverted; the AoA signature above was not.")
}
