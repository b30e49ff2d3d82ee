package journal

// Incident forensics: reconstructing one client's (or one trace's)
// causal decision timeline from the WAL alone. The journal already
// records every decision-relevant event with a timestamp and — since
// codec v2 — the packet's trace ID, so report → verdict →
// score-crossing → directive → ack → release can be replayed as a
// timeline with inter-stage latencies long after the live trace ring
// has wrapped. Works on any journal layout the controller writes: a
// flat single-partition dir, a partitioned dir/p0..p{N-1} tree (entries
// merge by timestamp), a compacted journal (RecSkip gaps are elided
// bulk and carry no incident evidence), and a standby's replicated
// copy.

import (
	"fmt"
	"sort"
	"time"

	"secureangle/internal/defense"
	"secureangle/internal/fusion"
	"secureangle/internal/wifi"
)

// TimelineEntry is one journalled event on an incident timeline.
type TimelineEntry struct {
	// TS is the record's journal timestamp; LSN its sequence number
	// within Partition's stream (LSNs are per-partition — cross-
	// partition ordering is by TS).
	TS  time.Time
	LSN uint64
	// Partition is the partition stream the record came from (0 for a
	// flat single-partition journal).
	Partition int
	// Type is the journal record type ("report", "alert", "decision",
	// "directive", "ack", "release").
	Type RecordType
	// Trace is the event's trace ID (0 on v1 records and untraced
	// sessions).
	Trace uint64
	MAC   wifi.Addr
	// AP names the reporting/acking AP where the event has one.
	AP string
	// Detail is a one-line human summary of the event.
	Detail string
	// SincePrev is the latency from the previous timeline entry (0 on
	// the first).
	SincePrev time.Duration
}

// Incident is a reconstructed timeline for one MAC or one trace.
type Incident struct {
	MAC wifi.Addr
	// Traces lists the distinct nonzero trace IDs the timeline joined,
	// in first-seen order.
	Traces []uint64
	// Entries is the merged timeline, ordered by timestamp.
	Entries []TimelineEntry
	// Partitions is the number of partition streams scanned (1 for a
	// flat journal).
	Partitions int
	// Records is the total number of journal records scanned.
	Records int
}

// IncidentQuery selects which events join the timeline. At least one
// of MAC (with HasMAC) or Trace must be set; when both are set a
// record joins if it matches either — the trace links events (e.g. a
// directive fanning out) that a MAC filter alone would miss, and vice
// versa.
type IncidentQuery struct {
	MAC    wifi.Addr
	HasMAC bool
	// Trace filters by trace ID when nonzero.
	Trace uint64
	// After skips records with LSN <= it in every partition stream.
	After uint64
}

// ReconstructIncident scans the journal layout under dir and returns
// the merged, latency-annotated timeline of every record matching q.
func ReconstructIncident(dir string, q IncidentQuery) (*Incident, error) {
	if !q.HasMAC && q.Trace == 0 {
		return nil, fmt.Errorf("journal: incident query needs a MAC or a trace ID")
	}
	dirs, err := Dirs(dir)
	if err != nil {
		return nil, err
	}
	inc := &Incident{MAC: q.MAC, Partitions: len(dirs)}
	for pi, pdir := range dirs {
		err := ReadRecords(pdir, q.After, func(rec Record) error {
			inc.Records++
			e, ok, err := incidentEntry(rec, q)
			if err != nil {
				return err
			}
			if ok {
				e.Partition = pi
				inc.Entries = append(inc.Entries, e)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.SliceStable(inc.Entries, func(i, j int) bool {
		a, b := inc.Entries[i], inc.Entries[j]
		if !a.TS.Equal(b.TS) {
			return a.TS.Before(b.TS)
		}
		if a.Partition != b.Partition {
			return a.Partition < b.Partition
		}
		return a.LSN < b.LSN
	})
	seen := map[uint64]bool{}
	for i := range inc.Entries {
		if i > 0 {
			inc.Entries[i].SincePrev = inc.Entries[i].TS.Sub(inc.Entries[i-1].TS)
		}
		if tr := inc.Entries[i].Trace; tr != 0 && !seen[tr] {
			seen[tr] = true
			inc.Traces = append(inc.Traces, tr)
		}
		// A by-trace query carries no MAC; name the incident after the
		// client the matched records implicate.
		if !q.HasMAC && inc.MAC == (wifi.Addr{}) {
			inc.MAC = inc.Entries[i].MAC
		}
	}
	return inc, nil
}

// incidentEntry decodes one record and reports whether it matches q.
func incidentEntry(rec Record, q IncidentQuery) (TimelineEntry, bool, error) {
	ev, err := DecodeEvent(rec)
	if err != nil {
		return TimelineEntry{}, false, fmt.Errorf("LSN %d: %w", rec.LSN, err)
	}
	e := TimelineEntry{TS: rec.TS, LSN: rec.LSN, Type: rec.Type}
	switch ev := ev.(type) {
	case ReportEvent:
		e.MAC, e.AP, e.Trace = ev.MAC, ev.AP, ev.Trace
		e.Detail = fmt.Sprintf("bearing %.1f° from %s (seq %d)", ev.BearingDeg, ev.AP, ev.Seq)
	case defense.SpoofVerdict:
		e.MAC, e.AP, e.Trace = ev.MAC, ev.AP, ev.Trace
		e.Detail = fmt.Sprintf("spoof verdict from %s: distance %.2f vs threshold %.2f (stage %s)",
			ev.AP, ev.Distance, ev.Threshold, ev.Stage)
	case fusion.Decision:
		e.MAC, e.Trace = ev.MAC, ev.Trace
		e.Detail = fmt.Sprintf("fence decision %s at (%.1f, %.1f) from %d AP(s)",
			ev.Decision, ev.Pos.X, ev.Pos.Y, len(ev.APs))
		if ev.Forced {
			e.Detail += " [forced]"
		}
	case defense.Directive:
		e.MAC, e.AP, e.Trace = ev.MAC, ev.Reporter, ev.Trace
		e.Detail = fmt.Sprintf("directive %s: %s -> %s (score %.2f, by %s)",
			ev.Action, ev.From, ev.To, ev.Score, ev.Reporter)
	case AckEvent:
		e.MAC, e.AP, e.Trace = ev.Directive.MAC, ev.AP, ev.Directive.Trace
		e.Detail = fmt.Sprintf("%s acknowledged %s applied", ev.AP, ev.Directive.Action)
	case ReleaseEvent:
		e.MAC, e.AP, e.Trace = ev.MAC, ev.Source, ev.Trace
		e.Detail = fmt.Sprintf("released (source %s)", ev.Source)
	default:
		// Skip gaps, enrollment mutations: no incident evidence.
		return TimelineEntry{}, false, nil
	}
	match := q.HasMAC && e.MAC == q.MAC
	if !match && q.Trace != 0 && e.Trace == q.Trace {
		match = true
	}
	return e, match, nil
}

// Render formats the incident as the `secureangle incident` report.
func (inc *Incident) Render() string {
	if len(inc.Entries) == 0 {
		return "no matching journal records\n"
	}
	out := fmt.Sprintf("incident timeline for %s: %d event(s) across %d partition stream(s), %d record(s) scanned\n",
		inc.MAC, len(inc.Entries), inc.Partitions, inc.Records)
	for _, e := range inc.Entries {
		gap := ""
		if e.SincePrev > 0 {
			gap = fmt.Sprintf("+%s", e.SincePrev.Truncate(time.Microsecond))
		}
		tr := ""
		if e.Trace != 0 {
			tr = fmt.Sprintf(" trace=%016x", e.Trace)
		}
		out += fmt.Sprintf("  %s %9s  p%d/%-6d %-9s %s%s\n",
			e.TS.Format("15:04:05.000000"), gap, e.Partition, e.LSN, e.Type, e.Detail, tr)
	}
	if len(inc.Traces) > 0 {
		out += "traces joined:"
		for _, tr := range inc.Traces {
			out += fmt.Sprintf(" %016x", tr)
		}
		out += "\n"
	}
	return out
}
