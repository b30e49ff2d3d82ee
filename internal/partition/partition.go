// Package partition owns N MAC-range partitions of the controller
// core. Each partition holds its own fusion engine and defense engine
// (and, at the controller layer, its own journal stream); the Set fans
// queries in across all partitions so the Controller facade keeps its
// monolithic API.
//
// Partitioning is by MAC range, not hash: partition i owns the MACs
// whose 48-bit big-endian value falls in [i*2^48/N, (i+1)*2^48/N).
// Range ownership keeps journal streams self-describing (a segment's
// partition index pins the MAC range it can contain) and makes
// repartitioning a contiguous split/merge rather than a full reshuffle.
// Because fusion and defense state is strictly per-MAC, a partitioned
// set is decision-identical to a monolithic engine pair over any input
// stream.
package partition

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"secureangle/internal/defense"
	"secureangle/internal/fusion"
	"secureangle/internal/locate"
	"secureangle/internal/wifi"
)

// MaxPartitions bounds the fan-out; journal streams and the
// replication wire format carry the partition index as a uint16.
const MaxPartitions = 1024

// Part is one MAC-range partition: a fusion engine and a defense
// engine sharing the range.
type Part struct {
	Fusion  *fusion.Engine
	Defense *defense.Engine
}

// Set is a fixed-size ordered collection of partitions. All methods
// are safe for concurrent use (the engines themselves are sharded and
// concurrent); Close is one-shot.
type Set struct {
	parts []Part
}

// New builds an n-partition set. fcfg and dcfg produce the per-
// partition engine configs (called with the partition index, so
// callers can label Logf output or divide capacity caps). Engines are
// constructed in partition order; on error every engine already built
// is closed before returning.
func New(n int, fcfg func(p int) fusion.Config, dcfg func(p int) defense.Config) (*Set, error) {
	if n <= 0 {
		return nil, fmt.Errorf("partition: count %d, want >= 1", n)
	}
	if n > MaxPartitions {
		return nil, fmt.Errorf("partition: count %d exceeds max %d", n, MaxPartitions)
	}
	s := &Set{parts: make([]Part, n)}
	for i := range s.parts {
		fe, err := fusion.New(fcfg(i))
		if err != nil {
			s.closeFirst(i)
			return nil, fmt.Errorf("partition %d: fusion: %w", i, err)
		}
		de, err := defense.New(dcfg(i))
		if err != nil {
			fe.Close()
			s.closeFirst(i)
			return nil, fmt.Errorf("partition %d: defense: %w", i, err)
		}
		s.parts[i] = Part{Fusion: fe, Defense: de}
	}
	return s, nil
}

// MustNew is New, panicking on error (mirrors fusion.MustNew).
func MustNew(n int, fcfg func(p int) fusion.Config, dcfg func(p int) defense.Config) *Set {
	s, err := New(n, fcfg, dcfg)
	if err != nil {
		panic(err)
	}
	return s
}

// closeFirst closes partitions [0, i) after a mid-construction error.
func (s *Set) closeFirst(i int) {
	for k := 0; k < i; k++ {
		s.parts[k].Fusion.Close()
		s.parts[k].Defense.Close()
	}
}

// N returns the partition count.
func (s *Set) N() int { return len(s.parts) }

// At returns partition i.
func (s *Set) At(i int) Part { return s.parts[i] }

// IndexFor maps a MAC to its owning partition: the top bits of the
// 48-bit big-endian MAC value select a contiguous range.
func (s *Set) IndexFor(mac wifi.Addr) int {
	return IndexFor(mac, len(s.parts))
}

// IndexFor maps a MAC to one of n contiguous ranges covering the
// 48-bit MAC space. n must be in [1, MaxPartitions].
func IndexFor(mac wifi.Addr, n int) int {
	v := uint64(mac[0])<<40 | uint64(mac[1])<<32 | uint64(mac[2])<<24 |
		uint64(mac[3])<<16 | uint64(mac[4])<<8 | uint64(mac[5])
	return int(v * uint64(n) >> 48)
}

// For returns the partition owning mac.
func (s *Set) For(mac wifi.Addr) Part { return s.parts[s.IndexFor(mac)] }

// Ingest routes a bearing to its MAC's partition. It stays a direct
// route, not an IngestBatch of one: Group leaks its input, so the
// one-element slice would escape to the heap on every bearing.
func (s *Set) Ingest(b fusion.Bearing) { s.For(b.MAC).Fusion.Ingest(b) }

// groupScratch is the pooled state one Group call borrows: the
// partition-grouped reordering of the batch.
type groupScratch struct {
	partOf  []int32
	counts  []int32
	order   []int32
	grouped []fusion.Bearing
}

var groupPool = sync.Pool{New: func() any { return &groupScratch{} }}

// Group is the set's batch router, a stable counting sort by owning
// partition: it calls fn once per partition that owns any of bs, in
// partition order, with that partition's bearings in input order (run)
// and their indices in bs (idx). With one partition, run is bs itself
// and idx is nil. run and idx are only valid during fn.
func (s *Set) Group(bs []fusion.Bearing, fn func(p int, run []fusion.Bearing, idx []int32)) {
	if len(bs) == 0 {
		return
	}
	n := int32(len(s.parts))
	if n == 1 {
		fn(0, bs, nil)
		return
	}
	sc := groupPool.Get().(*groupScratch)
	if cap(sc.partOf) < len(bs) {
		sc.partOf = make([]int32, len(bs))
		sc.order = make([]int32, len(bs))
		sc.grouped = make([]fusion.Bearing, len(bs))
	}
	if cap(sc.counts) < int(n)+1 {
		sc.counts = make([]int32, n+1)
	}
	partOf, order := sc.partOf[:len(bs)], sc.order[:len(bs)]
	grouped, counts := sc.grouped[:len(bs)], sc.counts[:n+1]
	for i := range counts {
		counts[i] = 0
	}
	for i := range bs {
		p := int32(IndexFor(bs[i].MAC, int(n)))
		partOf[i] = p
		counts[p+1]++
	}
	for p := int32(0); p < n; p++ {
		counts[p+1] += counts[p]
	}
	next := counts[:n]
	for i := range bs {
		p := partOf[i]
		order[next[p]] = int32(i)
		grouped[next[p]] = bs[i]
		next[p]++
	}
	start := int32(0)
	for p := int32(0); p < n; p++ {
		end := counts[p] // advanced to the run's end by the scatter
		if end > start {
			fn(int(p), grouped[start:end], order[start:end])
		}
		start = end
	}
	clear(grouped) // drop Bearing string refs before pooling
	groupPool.Put(sc)
}

// IngestBatch routes a slice of bearings through Group, so each
// touched partition's engine takes its shard locks once per batch
// (fusion.Engine.IngestBatch) instead of once per bearing. Per-MAC
// input order is preserved, so the decisions are exactly those of
// len(bs) serial Ingest calls; they are delivered outside all engine
// locks, grouped by partition and input-ordered within each partition.
// emit, when non-nil, receives each decision with the input index of
// the bearing that completed it and overrides the engines' configured
// Emit for this batch.
func (s *Set) IngestBatch(bs []fusion.Bearing, emit fusion.BatchEmit) {
	s.Group(bs, func(p int, run []fusion.Bearing, idx []int32) {
		fe := s.parts[p].Fusion
		if emit == nil || idx == nil {
			fe.IngestBatch(run, emit)
			return
		}
		fe.IngestBatch(run, func(i int, d fusion.Decision, t fusion.TrackState, tracked bool) {
			emit(int(idx[i]), d, t, tracked)
		})
	})
}

// ReportDecision closes the loop for one fused decision: the fence
// verdict and the track verdict (ts, the track state the decision
// left) go to the MAC's defense engine, both carrying d.Trace. Live
// ingest, crash recovery, the standby and journal.Replay all feed
// defense through it.
func (s *Set) ReportDecision(d fusion.Decision, ts fusion.TrackState) {
	de := s.For(d.MAC).Defense
	de.ReportFence(defense.FenceVerdict{
		MAC: d.MAC, Seq: d.Seq, Pos: d.Pos,
		Allowed: d.Decision == locate.Allow, Forced: d.Forced,
		Trace: d.Trace,
	})
	de.ReportTrack(defense.TrackVerdict{MAC: d.MAC, Pos: ts.Pos, Vel: ts.Vel, Trace: d.Trace})
}

// ReportSpoof routes a spoof verdict to its MAC's partition.
func (s *Set) ReportSpoof(v defense.SpoofVerdict) { s.For(v.MAC).Defense.ReportSpoof(v) }

// ReportFence routes a fence verdict to its MAC's partition.
func (s *Set) ReportFence(v defense.FenceVerdict) { s.For(v.MAC).Defense.ReportFence(v) }

// ReportTrack routes a track verdict to its MAC's partition.
func (s *Set) ReportTrack(v defense.TrackVerdict) { s.For(v.MAC).Defense.ReportTrack(v) }

// Release releases mac's countermeasure in its partition.
func (s *Set) Release(mac wifi.Addr) bool { return s.For(mac).Defense.Release(mac) }

// Track returns mac's track state from its partition.
func (s *Set) Track(mac wifi.Addr) (fusion.TrackState, bool) {
	return s.For(mac).Fusion.Track(mac)
}

// State returns mac's threat state from its partition.
func (s *Set) State(mac wifi.Addr) (defense.ClientThreat, bool) {
	return s.For(mac).Defense.State(mac)
}

// Stats sums fusion stats across partitions.
func (s *Set) Stats() fusion.Stats {
	var sum fusion.Stats
	for i := range s.parts {
		st := s.parts[i].Fusion.Stats()
		sum.Ingested += st.Ingested
		sum.Decisions += st.Decisions
		sum.DupDropped += st.DupDropped
		sum.PendingExpired += st.PendingExpired
		sum.PendingEvicted += st.PendingEvicted
		sum.ClientsEvicted += st.ClientsEvicted
		sum.ForcedTimeouts += st.ForcedTimeouts
		sum.FuseErrors += st.FuseErrors
	}
	return sum
}

// DefenseStats sums defense stats across partitions.
func (s *Set) DefenseStats() defense.Stats {
	var sum defense.Stats
	for i := range s.parts {
		st := s.parts[i].Defense.Stats()
		sum.SpoofVerdicts += st.SpoofVerdicts
		sum.FenceVerdicts += st.FenceVerdicts
		sum.TrackVerdicts += st.TrackVerdicts
		sum.Quarantines += st.Quarantines
		sum.NullSteers += st.NullSteers
		sum.Releases += st.Releases
		sum.DecayReleases += st.DecayReleases
		sum.TTLReleases += st.TTLReleases
		sum.OperatorReleases += st.OperatorReleases
		sum.EvictedReleases += st.EvictedReleases
		sum.SpeedFlags += st.SpeedFlags
		sum.Evicted += st.Evicted
		sum.Directives += st.Directives
	}
	return sum
}

// PartitionStats returns the per-partition fusion stats in partition
// order — the per-partition analogue of fusion.Engine.ShardStats.
func (s *Set) PartitionStats() []fusion.Stats {
	out := make([]fusion.Stats, len(s.parts))
	for i := range s.parts {
		out[i] = s.parts[i].Fusion.Stats()
	}
	return out
}

// PartitionDefenseStats returns the per-partition defense stats in
// partition order.
func (s *Set) PartitionDefenseStats() []defense.Stats {
	out := make([]defense.Stats, len(s.parts))
	for i := range s.parts {
		out[i] = s.parts[i].Defense.Stats()
	}
	return out
}

// ClientCount sums tracked fusion clients across partitions.
func (s *Set) ClientCount() int {
	n := 0
	for i := range s.parts {
		n += s.parts[i].Fusion.ClientCount()
	}
	return n
}

// PendingCount sums pending fusion transactions across partitions.
func (s *Set) PendingCount() int {
	n := 0
	for i := range s.parts {
		n += s.parts[i].Fusion.PendingCount()
	}
	return n
}

// DefenseClientCount sums tracked threat entries across partitions.
func (s *Set) DefenseClientCount() int {
	n := 0
	for i := range s.parts {
		n += s.parts[i].Defense.ClientCount()
	}
	return n
}

// Snapshot fans in the fusion track snapshot across partitions,
// ordered by MAC for deterministic output.
func (s *Set) Snapshot() []fusion.TrackState {
	var out []fusion.TrackState
	for i := range s.parts {
		out = append(out, s.parts[i].Fusion.Snapshot()...)
	}
	sort.Slice(out, func(i, j int) bool {
		return macLess(out[i].MAC, out[j].MAC)
	})
	return out
}

// Threats fans in the defense threat snapshot across partitions,
// ordered by MAC.
func (s *Set) Threats() []defense.ClientThreat {
	var out []defense.ClientThreat
	for i := range s.parts {
		out = append(out, s.parts[i].Defense.Snapshot()...)
	}
	sortThreats(out)
	return out
}

// Quarantined fans in the quarantined threat entries across
// partitions, ordered by MAC.
func (s *Set) Quarantined() []defense.ClientThreat {
	var out []defense.ClientThreat
	for i := range s.parts {
		out = append(out, s.parts[i].Defense.Quarantined()...)
	}
	sortThreats(out)
	return out
}

// StateCounts sums the defense state census across partitions.
func (s *Set) StateCounts() (allow, monitor, quarantine int) {
	for i := range s.parts {
		a, m, q := s.parts[i].Defense.StateCounts()
		allow += a
		monitor += m
		quarantine += q
	}
	return allow, monitor, quarantine
}

// Sweep drives every partition's coarse sweep with the same instant —
// used by replay and tests; live engines self-tick.
func (s *Set) Sweep(now time.Time) {
	for i := range s.parts {
		s.parts[i].Fusion.Sweep(now)
		s.parts[i].Defense.Sweep(now)
	}
}

// Close shuts every partition down in deterministic order (0..N-1,
// fusion before defense within each). Idempotent per engine.
func (s *Set) Close() {
	for i := range s.parts {
		s.parts[i].Fusion.Close()
		s.parts[i].Defense.Close()
	}
}

func macLess(a, b wifi.Addr) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func sortThreats(ts []defense.ClientThreat) {
	sort.Slice(ts, func(i, j int) bool { return macLess(ts[i].MAC, ts[j].MAC) })
}
