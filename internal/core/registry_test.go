package core

import (
	"math"
	"sort"
	"testing"

	"secureangle/internal/rng"
	"secureangle/internal/signature"
	"secureangle/internal/wifi"
)

// poolMAC is the i-th of a run of locally administered test addresses.
func poolMAC(i int) wifi.Addr {
	return wifi.Addr{0x02, 0x5a, byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)}
}

// randomGridSignature is a 360-point signature (the AP's grid size) of
// uniform draws from src.
func randomGridSignature(src *rng.Source) *signature.Signature {
	vals := make([]float64, 360)
	for i := range vals {
		vals[i] = src.Float64()
	}
	return gridSignature(vals)
}

// TestEnrollSharesSignature enrolls one signature under 1,000 fresh
// MACs: the registry keeps it by reference, so an enroll allocates its
// tracker (and now and then a map slot), not a copy of the 360-point
// spectrum and grid (four allocations, ~6 KiB, when every tracker
// deep-copied its signature).
func TestEnrollSharesSignature(t *testing.T) {
	ap := newBatchAP(t, 1)
	sig := randomGridSignature(rng.New(3))
	const n = 1000
	next := 0
	allocs := testing.AllocsPerRun(n, func() {
		ap.Enroll(poolMAC(next), sig)
		next++
	})
	if allocs >= 2 {
		t.Errorf("enroll: %v allocs per fresh MAC, want < 2", allocs)
	}
	for i := 0; i < next; i += 97 {
		if !ap.Known(poolMAC(i)) {
			t.Fatalf("%v not enrolled", poolMAC(i))
		}
	}
}

// TestIdentifyRankingUnchanged checks Identify, which scores each
// certified signature in place under its shard lock, against the ranking
// built from copies: StoredSignature per MAC, signature.Distance, and a
// sort by distance with ties broken by the MAC's string form. Many MACs
// share one enrolled signature (ties), some of them drift away through
// accepted updates, and others carry their own signatures.
func TestIdentifyRankingUnchanged(t *testing.T) {
	ap := newBatchAP(t, 1)
	src := rng.New(21)
	shared := randomGridSignature(src)
	var macs []wifi.Addr
	for i := 0; i < 40; i++ {
		macs = append(macs, poolMAC(i))
		ap.Enroll(poolMAC(i), shared)
	}
	for i := 40; i < 60; i++ {
		macs = append(macs, poolMAC(i))
		ap.Enroll(poolMAC(i), randomGridSignature(src))
	}
	// Near-copies of the shared signature are accepted and move their
	// trackers off it.
	for i := 0; i < 40; i += 3 {
		vals := append([]float64(nil), shared.P...)
		for j := range vals {
			vals[j] += 0.01 * src.Float64()
		}
		if _, _, err := ap.registry.observe(poolMAC(i), gridSignature(vals), ap.cfg.Policy); err != nil {
			t.Fatal(err)
		}
	}

	for probe := 0; probe < 3; probe++ {
		obs := shared
		if probe > 0 {
			obs = randomGridSignature(src)
		}
		want := make([]Identification, 0, len(macs))
		for _, mac := range macs {
			stored, ok := ap.StoredSignature(mac)
			if !ok {
				t.Fatalf("%v not enrolled", mac)
			}
			d, err := signature.Distance(stored, obs)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, Identification{MAC: mac, Distance: d})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Distance != want[j].Distance {
				return want[i].Distance < want[j].Distance
			}
			return want[i].MAC.String() < want[j].MAC.String()
		})
		got, err := ap.Identify(obs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("probe %d: %d candidates, want %d", probe, len(got), len(want))
		}
		for i := range want {
			if got[i].MAC != want[i].MAC || math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
				t.Fatalf("probe %d rank %d: (%v, %v), want (%v, %v)",
					probe, i, got[i].MAC, got[i].Distance, want[i].MAC, want[i].Distance)
			}
		}
	}
}

// BenchmarkEnrollShared enrolls one signature under a rotating set of
// 4,096 MACs: the registry's per-address cost when a client's addresses
// (or a replayed victim's) are all certified with one trained signature.
// Steady state is the tracker allocation alone.
func BenchmarkEnrollShared(b *testing.B) {
	ap := newBatchAP(b, 1)
	sig := randomGridSignature(rng.New(3))
	macs := make([]wifi.Addr, 4096)
	for i := range macs {
		macs[i] = poolMAC(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ap.Enroll(macs[i%len(macs)], sig)
	}
}
