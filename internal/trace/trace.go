// Package trace is the decision pipeline's distributed-tracing layer.
// Every observed packet is minted a 64-bit trace ID at the AP; the ID
// rides the wire protocol, threads through fusion ingest,
// defense state transitions, directive fan-out, and ack receipt, and is
// stamped into the journal event codecs so an incident's causal
// timeline survives in the WAL.
//
// The live side of the layer is the Recorder: a fixed-size lock-striped
// ring of value-type Span records. Recording a span takes one striped
// mutex, copies one value, and bumps one atomic counter — zero
// allocations, tens of nanoseconds — so spans sit directly on the
// packet and controller hot paths without moving the pinned alloc
// budgets.
//
// Sampling is tail-based: every span of every trace enters the ring
// (the ring is the buffer), and the keep/drop decision happens when the
// trace's fate is known. A trace that touches an alert, a quarantine
// directive, or an ack is promoted to the retained store
// unconditionally (Retain); a benign trace is promoted with a
// configurable probability decided by a deterministic hash of its ID
// (Sample), so the retained store always holds every incident plus a
// representative background of normal traffic. Striping is by trace
// ID, so all of a trace's spans live in one stripe and promotion scans
// exactly one stripe under its lock.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"secureangle/internal/ops"
	"secureangle/internal/wifi"
)

// Stage labels where in the decision pipeline a span was recorded.
type Stage uint8

const (
	// StageObserve is the AP's estimation pipeline (detect + estimate).
	StageObserve Stage = 1 + iota
	// StageSpoofCheck is the AP's signature match for the packet's MAC.
	StageSpoofCheck
	// StageIngest is the controller accepting one report off the wire.
	StageIngest
	// StageFuse is a fusion decision (bearings crossed into a position).
	StageFuse
	// StageAlert is a spoof verdict arriving at the defense engine.
	StageAlert
	// StageDirective is a countermeasure directive fanning out.
	StageDirective
	// StageAck is an AP acknowledging an applied countermeasure.
	StageAck
	// StageRelease is a quarantine release (operator, decay, or TTL).
	StageRelease
)

// String names the stage for timelines and the /traces document.
func (s Stage) String() string {
	switch s {
	case StageObserve:
		return "observe"
	case StageSpoofCheck:
		return "spoofcheck"
	case StageIngest:
		return "ingest"
	case StageFuse:
		return "fuse"
	case StageAlert:
		return "alert"
	case StageDirective:
		return "directive"
	case StageAck:
		return "ack"
	case StageRelease:
		return "release"
	default:
		return "unknown"
	}
}

// Span is one recorded pipeline hop. It is a value type on purpose:
// recording copies it into a preallocated ring slot, so the steady
// path never allocates. AP is a reference to an existing interned
// string (the AP's session name), never a freshly built one.
type Span struct {
	Trace     uint64
	Start     int64 // unix nanoseconds
	Dur       int64 // nanoseconds
	MAC       wifi.Addr
	Stage     Stage
	Partition uint16
	AP        string
}

// Now returns the wall-clock instant spans are stamped with.
func Now() int64 { return time.Now().UnixNano() }

// splitmix64 finalizer: decorrelates sequential counter values into
// uniformly distributed IDs, so hash-based sampling is unbiased.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

var idState atomic.Uint64

func init() {
	idState.Store(uint64(time.Now().UnixNano()))
}

// NextID mints a process-unique nonzero 64-bit trace ID: a seeded
// counter pushed through a splitmix64 finalizer. Zero is reserved as
// "no trace" (a report its sender left untraced).
func NextID() uint64 {
	x := mix(idState.Add(0x9e3779b97f4a7c15))
	if x == 0 {
		return 1
	}
	return x
}

const (
	numStripes = 32  // power of two; stripe = hash(trace) high bits
	stripeCap  = 256 // spans per stripe (power of two)
	// retainedTraces bounds the tail-sampled store; old traces are
	// evicted round-robin.
	retainedTraces = 256
)

// stripe is one lock-striped ring segment. next is monotone; the slot
// for the i'th span is i % stripeCap.
type stripe struct {
	mu   sync.Mutex
	next uint64
	buf  [stripeCap]Span
	// pad keeps adjacent stripes off the same cache line.
	_ [64]byte
}

// Retention records why a trace survived tail sampling.
type Retention uint8

const (
	// RetainedIncident: the trace touched an alert, directive, or ack.
	RetainedIncident Retention = 1 + iota
	// RetainedSampled: a benign trace kept by the probabilistic sampler.
	RetainedSampled
)

// String names the retention reason.
func (r Retention) String() string {
	switch r {
	case RetainedIncident:
		return "incident"
	case RetainedSampled:
		return "sampled"
	default:
		return "unknown"
	}
}

// retained is one kept trace: the spans promoted out of the ring.
type retained struct {
	id    uint64
	why   Retention
	last  int64 // latest span start, for ordering
	spans []Span
	inUse bool
}

// Recorder is the span ring plus the tail-sampling retained store.
// Record is safe from any goroutine and allocation-free; Retain,
// Sample, and Snapshot may allocate (they run on incident and scrape
// paths, not per packet).
type Recorder struct {
	stripes [numStripes]stripe

	// sampleBits is the benign-keep threshold compared against a
	// 64-bit hash of the trace ID; math.MaxUint64 keeps everything,
	// 0 keeps nothing.
	sampleBits atomic.Uint64

	retMu  sync.Mutex
	ret    [retainedTraces]retained
	retPos int
	byID   map[uint64]int

	mSpans    *ops.Counter
	mIncident *ops.Counter
	mSampled  *ops.Counter
	mDropped  *ops.Counter
}

// DefaultBenignSampleRate is the fraction of benign (no alert, no
// directive) traces the tail sampler retains.
const DefaultBenignSampleRate = 0.01

// NewRecorder builds a Recorder registering its counters on reg
// (nil uses ops.Default()).
func NewRecorder(reg *ops.Registry) *Recorder {
	if reg == nil {
		reg = ops.Default()
	}
	r := &Recorder{
		byID: make(map[uint64]int, retainedTraces),
		mSpans: reg.Counter("secureangle_trace_spans_total",
			"Pipeline spans recorded into the trace ring."),
		mIncident: reg.CounterL("secureangle_trace_retained_total",
			"Traces kept by the tail sampler, by reason.", `reason="incident"`),
		mSampled: reg.CounterL("secureangle_trace_retained_total",
			"Traces kept by the tail sampler, by reason.", `reason="sampled"`),
		mDropped: reg.Counter("secureangle_trace_dropped_total",
			"Benign traces the tail sampler let age out of the ring."),
	}
	r.SetBenignSampleRate(DefaultBenignSampleRate)
	return r
}

var defaultRecorder = NewRecorder(nil)

// Default is the process-wide recorder: the AP pipeline and the
// controller both record here, and the ops endpoint's /traces serves
// it.
func Default() *Recorder { return defaultRecorder }

// SetBenignSampleRate sets the fraction of benign traces the tail
// sampler keeps (clamped to [0, 1]). Incident traces are always kept.
func (r *Recorder) SetBenignSampleRate(p float64) {
	switch {
	case p <= 0:
		r.sampleBits.Store(0)
	case p >= 1:
		r.sampleBits.Store(^uint64(0))
	default:
		r.sampleBits.Store(uint64(p * float64(1<<63) * 2))
	}
}

func (r *Recorder) stripeFor(trace uint64) *stripe {
	return &r.stripes[mix(trace)>>32&(numStripes-1)]
}

// Record writes one span into the ring. Zero-alloc, a few tens of
// nanoseconds; a zero trace ID (an untraced report) is dropped so the
// ring holds only correlatable spans.
func (r *Recorder) Record(s Span) {
	if s.Trace == 0 {
		return
	}
	st := r.stripeFor(s.Trace)
	st.mu.Lock()
	st.buf[st.next&(stripeCap-1)] = s
	st.next++
	st.mu.Unlock()
	r.mSpans.Add(1)
}

// collect copies every span of trace id still live in its stripe,
// appending to dst.
func (r *Recorder) collect(id uint64, dst []Span) []Span {
	st := r.stripeFor(id)
	st.mu.Lock()
	n := st.next
	lo := uint64(0)
	if n > stripeCap {
		lo = n - stripeCap
	}
	for i := lo; i < n; i++ {
		if sp := st.buf[i&(stripeCap-1)]; sp.Trace == id {
			dst = append(dst, sp)
		}
	}
	st.mu.Unlock()
	return dst
}

// promote moves a trace's ring spans into the retained store, merging
// with any spans already retained for it (an incident trace is
// promoted again on each escalation, picking up the new spans).
func (r *Recorder) promote(id uint64, why Retention) {
	fresh := r.collect(id, nil)
	r.retMu.Lock()
	defer r.retMu.Unlock()
	slot, ok := r.byID[id]
	if !ok {
		slot = r.retPos % retainedTraces
		r.retPos++
		if old := &r.ret[slot]; old.inUse {
			delete(r.byID, old.id)
		}
		r.ret[slot] = retained{id: id, why: why, inUse: true}
		r.byID[id] = slot
	}
	t := &r.ret[slot]
	if why == RetainedIncident {
		t.why = RetainedIncident
	}
	for _, sp := range fresh {
		if !containsSpan(t.spans, sp) {
			t.spans = append(t.spans, sp)
		}
		if sp.Start > t.last {
			t.last = sp.Start
		}
	}
}

func containsSpan(spans []Span, s Span) bool {
	for _, have := range spans {
		if have.Stage == s.Stage && have.Start == s.Start && have.AP == s.AP && have.Dur == s.Dur {
			return true
		}
	}
	return false
}

// Retain promotes a trace unconditionally — called when the trace
// touches an alert, a quarantine/null-steer directive, or an ack.
// Safe to call repeatedly as an incident escalates.
func (r *Recorder) Retain(id uint64) {
	if id == 0 {
		return
	}
	r.retMu.Lock()
	_, known := r.byID[id]
	r.retMu.Unlock()
	if !known {
		r.mIncident.Inc()
	}
	r.promote(id, RetainedIncident)
}

// Sample is the benign tail decision: a trace that completed without
// touching the defense loop is kept with the configured probability
// (decided by a deterministic hash of its ID, so the choice is stable
// across partitions and replicas) and otherwise left to age out of
// the ring.
func (r *Recorder) Sample(id uint64) {
	if id == 0 {
		return
	}
	r.retMu.Lock()
	_, known := r.byID[id]
	r.retMu.Unlock()
	if known {
		// Already retained as an incident; nothing to decide.
		return
	}
	if mix(id^0xa0761d6478bd642f) >= r.sampleBits.Load() {
		r.mDropped.Inc()
		return
	}
	r.mSampled.Inc()
	r.promote(id, RetainedSampled)
}

// View is one retained trace as served by /traces.
type View struct {
	Trace   uint64
	Why     Retention
	Spans   []Span // ordered by start time
	StartNs int64
	EndNs   int64
}

// Snapshot returns the retained traces, most recent first, capped at
// max (<= 0 means all). Scrape-path only; allocates freely.
func (r *Recorder) Snapshot(max int) []View {
	r.retMu.Lock()
	views := make([]View, 0, len(r.byID))
	for _, slot := range r.byID {
		t := &r.ret[slot]
		v := View{Trace: t.id, Why: t.why, Spans: append([]Span(nil), t.spans...)}
		views = append(views, v)
	}
	r.retMu.Unlock()
	for i := range views {
		v := &views[i]
		sort.Slice(v.Spans, func(a, b int) bool { return v.Spans[a].Start < v.Spans[b].Start })
		if len(v.Spans) > 0 {
			v.StartNs = v.Spans[0].Start
			last := v.Spans[len(v.Spans)-1]
			v.EndNs = last.Start + last.Dur
		}
	}
	sort.Slice(views, func(a, b int) bool { return views[a].EndNs > views[b].EndNs })
	if max > 0 && len(views) > max {
		views = views[:max]
	}
	return views
}

// RetainedCount reports how many traces the store currently holds.
func (r *Recorder) RetainedCount() int {
	r.retMu.Lock()
	defer r.retMu.Unlock()
	return len(r.byID)
}
