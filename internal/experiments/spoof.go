package experiments

import (
	"fmt"
	"strings"

	"secureangle/internal/baseline"
	"secureangle/internal/geom"
	"secureangle/internal/ofdm"
	"secureangle/internal/signature"
	"secureangle/internal/testbed"
)

// SpoofTrial is one attacker location trying to impersonate the victim.
type SpoofTrial struct {
	AttackerPos geom.Point
	DistanceM   float64 // attacker-to-victim distance
	// AoADetected: SecureAngle flagged the spoofed packet.
	AoADetected bool
	AoADistance float64
	// RSSDetected: the RSS signalprint baseline flagged the attacker
	// even when it shapes power with a directional antenna.
	RSSDetected bool
	RSSDiffDB   float64
}

// SpoofResult is the address-spoofing-prevention experiment.
type SpoofResult struct {
	VictimID int
	// FalseAlarmRate is the fraction of genuine victim packets flagged.
	FalseAlarmRate float64
	// AoADetectionRate / RSSDetectionRate aggregate over attacker
	// positions.
	AoADetectionRate float64
	RSSDetectionRate float64
	Trials           []SpoofTrial
	LegitPackets     int
}

// RunSpoof reproduces the section 2.3.2 application with the related-work
// comparison of section 4: the AP trains on the victim's signature, then
// (a) re-observes the victim to measure false alarms under channel noise,
// and (b) observes an attacker spoofing the victim's MAC from every other
// client position. The RSS baseline faces a directional-antenna attacker
// that shapes per-AP power (reference [10]); SecureAngle faces the same
// attacker, whose antenna cannot forge multipath AoA structure.
func RunSpoof(seed int64, victimID, legitPackets int) (*SpoofResult, error) {
	if legitPackets <= 0 {
		legitPackets = 20
	}
	ap := newAP1(seed)
	victim, err := testbed.ClientByID(victimID)
	if err != nil {
		return nil, err
	}
	// Training stage.
	trainFrame := testbed.UplinkFrame(victimID, 0, []byte("train"))
	if _, err := ap.ProcessFrame(victim.Pos, trainFrame, ofdm.QPSK); err != nil {
		return nil, err
	}

	res := &SpoofResult{VictimID: victimID, LegitPackets: legitPackets}

	// (a) False alarms on genuine traffic.
	var falseAlarms int
	for pkt := 1; pkt <= legitPackets; pkt++ {
		f := testbed.UplinkFrame(victimID, uint16(pkt), []byte("legit"))
		fr, err := ap.ProcessFrame(victim.Pos, f, ofdm.QPSK)
		if err != nil {
			return nil, err
		}
		if fr.Decision == signature.Flag {
			falseAlarms++
		}
	}
	res.FalseAlarmRate = float64(falseAlarms) / float64(legitPackets)

	// RSS prints for the baseline: victim's print at the 3 AP positions.
	e, _ := testbed.Building()
	victimPrint := baseline.FromPowers(testbed.RSSPowers(e, victim.Pos))

	// (b) Attacker from every other client position in the same room set.
	var aoaHits, rssHits int
	for _, c := range testbed.Clients() {
		if c.ID == victimID {
			continue
		}
		spoof := testbed.UplinkFrame(victimID, 100+uint16(c.ID), []byte("spoofed"))
		fr, err := ap.ProcessFrame(c.Pos, spoof, ofdm.QPSK)
		if err != nil {
			continue // unhearable attacker position: no packet, no threat
		}
		trial := SpoofTrial{
			AttackerPos: c.Pos,
			DistanceM:   c.Pos.Dist(victim.Pos),
			AoADetected: fr.Decision == signature.Flag,
			AoADistance: fr.Distance,
		}
		// RSS baseline against the directional attacker.
		atk := baseline.DirectionalAttacker{MaxGainDB: 20, ErrorDB: 1}
		forged, err := atk.ForgePrint(victimPrint, baseline.FromPowers(testbed.RSSPowers(e, c.Pos)))
		if err != nil {
			return nil, err
		}
		match, err := baseline.DefaultMatcher().Matches(victimPrint, forged)
		if err != nil {
			return nil, err
		}
		trial.RSSDetected = !match
		trial.RSSDiffDB, _ = baseline.Distance(victimPrint, forged)
		if trial.AoADetected {
			aoaHits++
		}
		if trial.RSSDetected {
			rssHits++
		}
		res.Trials = append(res.Trials, trial)
	}
	if n := len(res.Trials); n > 0 {
		res.AoADetectionRate = float64(aoaHits) / float64(n)
		res.RSSDetectionRate = float64(rssHits) / float64(n)
	}
	return res, nil
}

// Render prints the spoofing-prevention comparison.
func (r *SpoofResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Address spoofing prevention (victim = client %d):\n", r.VictimID)
	fmt.Fprintf(&b, "false alarm rate on %d genuine packets: %.2f\n", r.LegitPackets, r.FalseAlarmRate)
	fmt.Fprintf(&b, "%-18s %-10s %-14s %-14s\n", "attacker", "dist(m)", "AoA detect", "RSS detect (directional atk)")
	for _, tr := range r.Trials {
		fmt.Fprintf(&b, "%-18s %-10.1f %-14v %-14v\n", tr.AttackerPos, tr.DistanceM, tr.AoADetected, tr.RSSDetected)
	}
	fmt.Fprintf(&b, "AoA detection rate: %.2f   RSS baseline detection rate: %.2f\n",
		r.AoADetectionRate, r.RSSDetectionRate)
	return b.String()
}
