package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// minBeyond is the number of samples a reported percentile must have
// beyond it: a p99 needs at least 1000 samples, a p50 at least 20.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples (sorting
// them in place) and an error when fewer than minBeyond samples lie
// beyond it — a tail read off a handful of points is noise, so the run
// refuses to report it.
func percentile(samples []time.Duration, q float64) (time.Duration, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("no samples for p%g", q*100)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", q*100, n, beyond, minBeyond)
	}
	return samples[rank-1], nil
}

// lat is one latency sample: when its operation was handed over or due,
// and how long it took to complete.
type lat struct {
	start time.Time
	d     time.Duration
}

// latencyWindow is the width of the windows latency percentiles are
// taken over.
const latencyWindow = 2 * time.Second

// windowedPercentile is the lower quartile, over a phase's
// latencyWindow-wide windows (by start time), of each window's
// q-quantile. Windows with too few samples for the percentile are left
// out; at least three must remain. A run on a shared virtual machine
// meets stretches of interference — neighbours taking the vCPUs (steal
// reached a third of both vCPUs for whole runs on the host these numbers
// come from), garbage-collection cycles — that a percentile over the
// whole run reports instead of the program. The lower-quartile window
// reports the program until three quarters of the run is disturbed; a
// change to the program moves every window alike, so it moves this too.
func windowedPercentile(samples []lat, q float64) (time.Duration, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("no samples for p%g", q*100)
	}
	origin := samples[0].start
	for _, s := range samples {
		if s.start.Before(origin) {
			origin = s.start
		}
	}
	var windows [][]time.Duration
	for _, s := range samples {
		i := int(s.start.Sub(origin) / latencyWindow)
		for len(windows) <= i {
			windows = append(windows, nil)
		}
		windows[i] = append(windows[i], s.d)
	}
	var per []float64
	for _, w := range windows {
		if v, err := percentile(w, q); err == nil {
			per = append(per, float64(v))
		}
	}
	if len(per) < 3 {
		return 0, fmt.Errorf("p%g: %d of %d windows hold enough samples, want >= 3", q*100, len(per), len(windows))
	}
	q1, _, _ := quartiles(per)
	return time.Duration(q1), nil
}

// reportLatency sets name_p50_ms and name_p90_ms (windowed, see
// windowedPercentile), turning an under-sampled percentile into a
// correctness problem. The tail reported is p90, not p99: on the shared
// two-vCPU host these numbers come from, p99 follows garbage-collection
// and neighbour stalls, and its spread across ten runs was 0.5 to 1.3 of
// its median on the open-loop workloads. The traced run reports the
// p99s (untraced half) for diagnosis.
func (b *bench) reportLatency(name string, samples []lat) {
	for _, q := range []struct {
		q      float64
		suffix string
	}{{0.50, "_p50_ms"}, {0.90, "_p90_ms"}} {
		v, err := windowedPercentile(samples, q.q)
		if err != nil {
			b.problem("%s: %v", name, err)
			continue
		}
		b.set(name+q.suffix, ms(v), "ms")
	}
}

// reportTail sets name to the p99 over the whole phase when the samples
// support it (a per-layer diagnostic).
func (b *bench) reportTail(name string, samples []lat) {
	ds := make([]time.Duration, len(samples))
	for i, s := range samples {
		ds[i] = s.d
	}
	if v, err := percentile(ds, 0.99); err == nil {
		b.set(name, ms(v), "ms")
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perTx divides a duration over n operations, in microseconds.
func perTx(d time.Duration, n int) float64 {
	if n <= 0 {
		return 0
	}
	return us(d) / float64(n)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowRate is the upper quartile, over the whole seconds of a phase,
// of the operations completed in each second — robust, as
// windowedPercentile is, to interference over up to three quarters of
// the run, where one total over the phase is not. Phases shorter than
// three whole seconds fall back to the plain average.
func windowRate(start time.Time, done []time.Time) float64 {
	var last time.Time
	for _, t := range done {
		if t.After(last) {
			last = t
		}
	}
	elapsed := last.Sub(start)
	secs := int(elapsed / time.Second)
	if secs < 3 {
		return ratio(float64(len(done)), elapsed.Seconds())
	}
	counts := make([]float64, secs)
	for _, t := range done {
		if i := int(t.Sub(start) / time.Second); i >= 0 && i < secs {
			counts[i]++
		}
	}
	_, _, q3 := quartiles(counts)
	return q3
}

// processCPU returns the process's user+system CPU time.
func processCPU() time.Duration { return rusageCPU(syscall.RUSAGE_SELF) }

// rusageThread is Linux's RUSAGE_THREAD (absent from package syscall).
const rusageThread = 1

// threadCPU returns the calling OS thread's user+system CPU time; the
// caller must hold runtime.LockOSThread for the reading to mean its own
// goroutine.
func threadCPU() time.Duration { return rusageCPU(rusageThread) }

func rusageCPU(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// Each workload builds its world at least setupMinRepeats times and
// until setupMinTime has passed (at most setupMaxRepeats); the median
// build time is setup_s, and only the last build is measured. A world
// that builds in milliseconds is built many times, so its median is
// not one scheduling hiccup.
const (
	setupMinRepeats = 5
	setupMaxRepeats = 50
	setupMinTime    = time.Second
)

// setupWorld builds a workload's world repeatedly (closing all but the
// last) and reports the median build time as setup_s.
func setupWorld[W interface{ close() }](b *bench, build func(i int) (W, error)) (W, error) {
	var times []float64
	var spent time.Duration
	for i := 0; ; i++ {
		t0 := time.Now()
		w, err := build(i)
		if err != nil {
			return w, err
		}
		d := time.Since(t0)
		times = append(times, d.Seconds())
		spent += d
		done := i+1 >= setupMaxRepeats || (i+1 >= setupMinRepeats && spent >= setupMinTime)
		if !done {
			w.close()
		}
		// Collect the discarded worlds and the set-up garbage outside the
		// timed builds, so neither the measured phase nor peak_rss_mb
		// depends on when the collector last ran.
		runtime.GC()
		if done {
			if !b.traced {
				b.set("setup_s", median(times), "s")
			}
			return w, nil
		}
	}
}

// countingConn counts the bytes and message frames an agent connection
// carries. netproto.WriteMessage issues two writes per frame (length
// header, then body), so frames = writes / 2.
type countingConn struct {
	net.Conn
	writes, wbytes, rbytes atomic.Uint64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.writes.Add(1)
	c.wbytes.Add(uint64(n))
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rbytes.Add(uint64(n))
	return n, err
}

// wireCount is a snapshot of a set of counting connections.
type wireCount struct{ frames, bytes uint64 }

func snapshotWire(cs ...*countingConn) wireCount {
	var w wireCount
	for _, c := range cs {
		w.frames += c.writes.Load() / 2
		w.bytes += c.wbytes.Load() + c.rbytes.Load()
	}
	return w
}

// openLoop paces an open-loop generator: item k is due at start+k*every
// regardless of how long earlier sends took, so a stall shows up as
// latency on every later item (latency is timed from the due time, not
// the send time). It records how late the generator ran.
type openLoop struct {
	start time.Time
	every time.Duration
	late  time.Duration // worst lateness observed
}

// due returns item k's due time.
func (o *openLoop) due(k int) time.Time { return o.start.Add(time.Duration(k) * o.every) }

// wait sleeps until item k is due and records lateness when past it.
func (o *openLoop) wait(k int) {
	d := o.due(k)
	if now := time.Now(); now.Before(d) {
		time.Sleep(d.Sub(now))
	} else if late := now.Sub(d); late > o.late {
		o.late = late
	}
}

// arrivals records timestamped arrivals keyed by a transmission index,
// each with a small integer payload (a decision or an action); consumer
// goroutines only call note. The slots are preallocated and hold no
// pointers, so recording adds nothing for the collector to trace in the
// process under test.
type arrivals struct {
	mu sync.Mutex
	at []int64 // unix nanoseconds, 0 = not arrived
	v  []int32
	n  atomic.Int64 // distinct IDs noted
}

func newArrivals(n int) *arrivals {
	return &arrivals{at: make([]int64, n), v: make([]int32, n)}
}

// note records the first arrival of id (IDs outside the run are ignored).
func (a *arrivals) note(id int, t time.Time, v int) {
	a.mu.Lock()
	if id >= 0 && id < len(a.at) && a.at[id] == 0 {
		a.at[id], a.v[id] = t.UnixNano(), int32(v)
		a.n.Add(1)
	}
	a.mu.Unlock()
}

// count returns how many distinct IDs have arrived.
func (a *arrivals) count() int { return int(a.n.Load()) }

// get returns id's arrival time and payload.
func (a *arrivals) get(id int) (time.Time, int, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if id < 0 || id >= len(a.at) || a.at[id] == 0 {
		return time.Time{}, 0, false
	}
	return time.Unix(0, a.at[id]), int(a.v[id]), true
}

// waitFor polls until cond holds or timeout passes (the post-run drain
// of in-flight decisions and directives).
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}
