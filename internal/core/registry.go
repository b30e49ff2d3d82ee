package core

import (
	"bytes"
	"slices"
	"sync"

	"secureangle/internal/signature"
	"secureangle/internal/wifi"
)

// trackerAlpha is the certified-signature update rate used for every
// tracker the AP enrolls (section 2.3.2's Scl update).
const trackerAlpha = 0.25

// registryShardCount is the lock-striping factor of the per-MAC signature
// registry. A single mutex serialises every spoof check an AP performs;
// with the batch pipeline running checks from a worker pool, striping by
// MAC keeps unrelated clients off each other's lock while preserving
// per-MAC ordering (all packets of one MAC hash to one shard).
const registryShardCount = 16

type registryShard struct {
	mu sync.Mutex
	m  map[wifi.Addr]*signature.Tracker
}

// shardedRegistry is the N-way lock-striped replacement for the old
// map[wifi.Addr]*Tracker under one AP-wide mutex.
type shardedRegistry struct {
	shards [registryShardCount]registryShard
}

func newShardedRegistry() *shardedRegistry {
	r := &shardedRegistry{}
	for i := range r.shards {
		r.shards[i].m = make(map[wifi.Addr]*signature.Tracker)
	}
	return r
}

// shardFor hashes a MAC onto its shard (FNV-1a).
func (r *shardedRegistry) shardFor(mac wifi.Addr) *registryShard {
	return &r.shards[mac.Hash()%registryShardCount]
}

// observe runs the spoof check for one observation: unknown MACs enroll a
// tracker seeded with sig and report enrolled=true; known MACs are
// compared against their certified signature, returning the scored
// verdict (decision + distance + threshold).
func (r *shardedRegistry) observe(mac wifi.Addr, sig *signature.Signature, policy signature.MatchPolicy) (v signature.Verdict, enrolled bool, err error) {
	s := r.shardFor(mac)
	s.mu.Lock()
	defer s.mu.Unlock()
	tr, known := s.m[mac]
	if !known {
		s.m[mac] = signature.NewTracker(sig, policy, trackerAlpha)
		return signature.Verdict{Decision: signature.Accept, Threshold: policy.MaxDistance}, true, nil
	}
	v, err = tr.ObserveVerdict(sig)
	return v, false, err
}

// enroll registers (or replaces) a certified signature, keeping sig by
// reference (see signature.NewTracker).
func (r *shardedRegistry) enroll(mac wifi.Addr, sig *signature.Signature, policy signature.MatchPolicy) {
	s := r.shardFor(mac)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[mac] = signature.NewTracker(sig, policy, trackerAlpha)
}

// known reports whether a MAC has a certified signature.
func (r *shardedRegistry) known(mac wifi.Addr) bool {
	s := r.shardFor(mac)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[mac]
	return ok
}

// stored returns the current certified signature for a MAC.
func (r *shardedRegistry) stored(mac wifi.Addr) (*signature.Signature, bool) {
	s := r.shardFor(mac)
	s.mu.Lock()
	defer s.mu.Unlock()
	tr, ok := s.m[mac]
	if !ok {
		return nil, false
	}
	return tr.Stored(), true
}

// rank scores every enrolled MAC's certified signature against obs,
// each under its shard lock and without copying the signature, and
// returns the candidates ascending by distance (ties by MAC). Each shard
// is locked in turn, so the result is a consistent view per shard but
// not across shards — the same guarantee registry iteration under one
// mutex gave callers that interleave with concurrent enrolls.
func (r *shardedRegistry) rank(obs *signature.Signature) ([]Identification, error) {
	var out []Identification
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for mac, tr := range s.m {
			d, err := tr.Distance(obs)
			if err != nil {
				s.mu.Unlock()
				return nil, err
			}
			out = append(out, Identification{MAC: mac, Distance: d})
		}
		s.mu.Unlock()
	}
	// A MAC's colon-hex String orders as its bytes do.
	slices.SortFunc(out, func(a, b Identification) int {
		if a.Distance != b.Distance {
			if a.Distance < b.Distance {
				return -1
			}
			return 1
		}
		return bytes.Compare(a.MAC[:], b.MAC[:])
	})
	return out, nil
}

// Identification is one ranked registry candidate for an observed
// signature.
type Identification struct {
	MAC      wifi.Addr
	Distance float64
}
