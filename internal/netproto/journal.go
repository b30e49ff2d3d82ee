package netproto

// The controller's flight recorder (see package journal):
// WithJournalDir attaches durable event journals, recovers state from
// them, and from then on every decision-relevant event — reports at
// ingest, spoof alerts, fused decisions, directives, acks, operator
// releases, enrollment mutations — is appended as it happens, with the
// engines snapshotted on a timer and at shutdown. A controller
// restarted over the same directory resumes its live quarantines
// instead of handing every quarantined attacker a free re-entry window
// as AP leases expire.
//
// A partitioned controller (Partitions > 1) keeps one journal per
// MAC-range partition under dir/p0..p{N-1}: each partition's stream is
// strictly ordered for its MACs, recoverable independently, and
// streamable to a standby without cross-partition coordination. The
// single-partition layout stays flat (the PR 5–7 on-disk format),
// so existing deployments recover unchanged.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"secureangle/internal/bin"
	"secureangle/internal/defense"
	"secureangle/internal/fusion"
	"secureangle/internal/journal"
	"secureangle/internal/partition"
	"secureangle/internal/wifi"
)

// DefaultSnapshotInterval is the journal snapshot cadence when
// Controller.SnapshotInterval is zero.
const DefaultSnapshotInterval = 30 * time.Second

// Controller snapshot framing: the journal's snapshot file holds both
// engines' codecs, length-prefixed.
const (
	ctrlSnapMagic   = "SACS" // SecureAngle Controller Snapshot
	ctrlSnapVersion = 1
)

// journalSet is the per-partition journal vector, one *journal.Journal
// per MAC-range partition (length always equals the partition count).
type journalSet struct {
	js []*journal.Journal
}

// journals returns the attached journal vector (nil when none).
func (c *Controller) journals() []*journal.Journal {
	if js := c.jset.Load(); js != nil {
		return js.js
	}
	return nil
}

// WithJournalDir opens (creating as needed) the controller's journal
// layout under dir and attaches it: a flat journal for a
// single-partition controller, dir/p0..p{N-1} for Partitions == N (see
// journal.OpenDir). An on-disk layout of any other partition count is
// refused — re-partitioning an existing journal is an offline
// migration, not a config change. opts applies to every partition's
// journal; zero fields take the package journal defaults.
func (c *Controller) WithJournalDir(dir string, opts journal.Options) error {
	js, err := journal.OpenDir(dir, c.nParts(), opts)
	if err != nil {
		return err
	}
	if err := c.attachJournals(js); err != nil {
		for _, j := range js {
			j.Close()
		}
		return err
	}
	return nil
}

// attachJournals recovers every partition from its journal and arms
// live journaling: per partition, the latest readable snapshot
// generation is restored into that partition's engines (falling back
// one generation on pre-apply validation failure), then the WAL tail
// after it is re-applied with the engines' clock pinned to the
// recorded timestamps, so decay, pending TTLs, and forced-decision
// deadlines replay exactly as they elapsed. Call it after setting the
// tuning fields and before Serve — it builds the engine set (freezing
// the tuning, the lazy-build contract) and returns an error on
// contradictory tuning or unreadable journal state; a failed recovery
// attaches nothing, so the caller may retry with a repaired journal.
//
// After it returns, every decision-relevant event is appended to its
// MAC's partition journal as it happens, snapshots are taken every
// SnapshotInterval and at Close, and APs that (re)connect receive the
// surviving quarantines as resume directives.
func (c *Controller) attachJournals(js []*journal.Journal) error {
	if c.jset.Load() != nil {
		return errors.New("netproto: journal already attached")
	}
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return errors.New("netproto: journal attach on closed controller")
	}
	if err := c.fusionConfig().WithDefaults().Validate(); err != nil {
		return err
	}
	if err := c.defenseConfig().WithDefaults().Validate(); err != nil {
		return err
	}

	// Recovery runs with journaling suppressed (the events being
	// re-applied are already in the log) and the engine clock pinned to
	// recorded time.
	c.recovering.Store(true)
	defer func() {
		c.clk.Live()
		c.recovering.Store(false)
	}()

	set := c.partsBuild()
	if set == nil {
		return errors.New("netproto: engines unavailable for recovery")
	}
	if set.N() != len(js) {
		return fmt.Errorf("netproto: %d journal(s) for %d partition(s)", len(js), set.N())
	}

	for i, j := range js {
		if err := c.recoverPartition(i, j, set); err != nil {
			return err
		}
	}
	c.logf("controller: journal recovery: %d partition(s), %d client(s) still quarantined",
		len(js), len(set.Quarantined()))

	c.jset.Store(&journalSet{js: js})
	if c.snapshotsEnabled() {
		c.snapDone = make(chan struct{})
		c.snapWG.Add(1)
		go c.snapshotLoop()
	}
	return nil
}

// recoverPartition restores one partition's engines from its journal:
// newest readable snapshot generation first (that is why two
// generations are retained — a corrupt latest snapshot costs a longer
// tail replay, not the recovery), then the WAL tail after it. Errors
// raised after snapshot validation are fatal: the engines may hold
// partial state.
func (c *Controller) recoverPartition(i int, j *journal.Journal, set *partition.Set) error {
	fe, de := set.At(i).Fusion, set.At(i).Defense
	var snapLSN uint64
	snaps, err := journal.Snapshots(j.Dir())
	if err != nil {
		return fmt.Errorf("netproto: journal snapshots p%d: %w", i, err)
	}
	for k := len(snaps) - 1; k >= 0; k-- {
		r, err := journal.OpenSnapshot(j.Dir(), snaps[k])
		if err != nil {
			c.logf("controller: p%d snapshot LSN %d unreadable (%v), trying older", i, snaps[k], err)
			continue
		}
		err = readControllerSnapshot(r, fe, de)
		r.Close()
		if err == nil {
			snapLSN = snaps[k]
			break
		}
		if !errors.Is(err, errSnapshotCorrupt) {
			return fmt.Errorf("netproto: journal snapshot p%d LSN %d: %w", i, snaps[k], err)
		}
		c.logf("controller: p%d snapshot LSN %d corrupt (%v), trying older", i, snaps[k], err)
	}

	last, n, err := journal.ApplyRecords(j.Dir(), snapLSN, c.partitionHooks(fe, de))
	if err != nil {
		return fmt.Errorf("netproto: journal recovery p%d: %w", i, err)
	}
	c.logf("controller: p%d recovery: snapshot through LSN %d, %d tail records re-applied (through LSN %d)",
		i, snapLSN, n, last)
	return nil
}

// partitionHooks routes replayed records into one partition's engines
// (and the controller-global token table). Shared by recovery and the
// standby's live apply path.
func (c *Controller) partitionHooks(fe *fusion.Engine, de *defense.Engine) journal.Hooks {
	return journal.Hooks{
		Clock: &c.clk,
		Sweep: func(now time.Time) {
			fe.Sweep(now)
			de.Sweep(now)
		},
		Report: func(ev journal.ReportEvent) {
			fe.Ingest(fusion.Bearing{AP: ev.AP, APPos: ev.APPos, MAC: ev.MAC, Seq: ev.Seq, Deg: ev.BearingDeg, Trace: ev.Trace})
		},
		Alert: func(v defense.SpoofVerdict) {
			de.ReportSpoof(v)
		},
		Release: func(ev journal.ReleaseEvent) {
			de.Release(ev.MAC)
		},
		Enroll: func(ev journal.EnrollEvent) {
			c.applyEnroll(ev)
		},
	}
}

// applyEnroll replays one enrollment mutation into the token table: a
// digest mints (or rotates) an AP's credential, an empty digest
// revokes it. Malformed digests are dropped — a journal from a newer
// hash would otherwise corrupt the table.
func (c *Controller) applyEnroll(ev journal.EnrollEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(ev.Digest) == 0 {
		delete(c.tokens, ev.Name)
		return
	}
	if len(ev.Digest) != sha256.Size || ev.Name == "" {
		return
	}
	if c.tokens == nil {
		c.tokens = make(map[string][sha256.Size]byte)
	}
	var d [sha256.Size]byte
	copy(d[:], ev.Digest)
	c.tokens[ev.Name] = d
}

// snapshotsEnabled resolves the snapshot cadence knob (negative
// disables snapshots, including the shutdown one).
func (c *Controller) snapshotsEnabled() bool { return c.SnapshotInterval >= 0 }

// snapshotInterval resolves the cadence (0 means the default).
func (c *Controller) snapshotInterval() time.Duration {
	if c.SnapshotInterval != 0 {
		return c.SnapshotInterval
	}
	return DefaultSnapshotInterval
}

func (c *Controller) snapshotLoop() {
	defer c.snapWG.Done()
	t := time.NewTicker(c.snapshotInterval())
	defer t.Stop()
	for {
		select {
		case <-c.snapDone:
			return
		case <-c.ctx.Done():
			return
		case <-t.C:
			for i, j := range c.journals() {
				if err := c.saveSnapshot(i, j); err != nil && !errors.Is(err, journal.ErrClosed) {
					c.logf("controller: snapshot p%d: %v", i, err)
				}
			}
		}
	}
}

// SnapshotJournal forces a snapshot of every partition now (the timer
// path made callable — operational tooling and tests). No-op error
// when no journal is attached.
func (c *Controller) SnapshotJournal() error {
	js := c.journals()
	if js == nil {
		return errors.New("netproto: no journal attached")
	}
	for i, j := range js {
		if err := c.saveSnapshot(i, j); err != nil {
			return err
		}
	}
	return nil
}

// saveSnapshot persists one partition's engine state through its
// journal's atomic snapshot path.
func (c *Controller) saveSnapshot(i int, j *journal.Journal) error {
	var fe *fusion.Engine
	var de *defense.Engine
	if set := c.partsLoaded(); set != nil && i < set.N() {
		p := set.At(i)
		fe, de = p.Fusion, p.Defense
	}
	_, err := j.SaveSnapshot(func(w io.Writer) error {
		return writeControllerSnapshot(w, fe, de)
	})
	return err
}

// errSnapshotCorrupt marks a snapshot that failed validation BEFORE
// any engine state was touched — recovery may cleanly fall back to the
// previous generation. Errors past validation (a codec bug surfacing
// mid-apply) are fatal instead: the engines may hold partial state.
var errSnapshotCorrupt = errors.New("netproto: corrupt controller snapshot")

// writeControllerSnapshot frames both engine codecs (either may be nil
// before traffic) into one snapshot stream, CRC32C-sealed so recovery
// can reject bit rot or a torn write before applying anything.
func writeControllerSnapshot(w io.Writer, fe *fusion.Engine, de *defense.Engine) error {
	var feSave, deSave func(io.Writer) error
	if fe != nil {
		feSave = fe.Save
	}
	if de != nil {
		deSave = de.Save
	}
	buf := bytes.NewBuffer(bin.U16(append(make([]byte, 0, 4096), ctrlSnapMagic...), ctrlSnapVersion))
	for _, save := range []func(io.Writer) error{feSave, deSave} {
		at := buf.Len()
		buf.Write([]byte{0, 0, 0, 0})
		if save != nil {
			if err := save(buf); err != nil {
				return err
			}
		}
		binary.BigEndian.PutUint32(buf.Bytes()[at:], uint32(buf.Len()-at-4))
	}
	_, err := w.Write(bin.U32(buf.Bytes(), crc32.Checksum(buf.Bytes(), crcTable)))
	return err
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// readControllerSnapshot restores both engine codecs from a snapshot
// stream written by writeControllerSnapshot. The whole stream is read
// and CRC-validated before either engine is mutated; validation
// failures return errSnapshotCorrupt.
func readControllerSnapshot(r io.Reader, fe *fusion.Engine, de *defense.Engine) error {
	blob, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("%w: %v", errSnapshotCorrupt, err)
	}
	if len(blob) < 4+2+4+4+4 {
		return fmt.Errorf("%w: %d bytes", errSnapshotCorrupt, len(blob))
	}
	body, crc := blob[:len(blob)-4], binary.BigEndian.Uint32(blob[len(blob)-4:])
	if crc32.Checksum(body, crcTable) != crc {
		return fmt.Errorf("%w: checksum mismatch", errSnapshotCorrupt)
	}
	br := bin.NewReader(body)
	if magic := br.Bytes(4); string(magic) != ctrlSnapMagic {
		return fmt.Errorf("%w: bad magic %q", errSnapshotCorrupt, magic)
	}
	if v := br.U16(); v != ctrlSnapVersion {
		return fmt.Errorf("%w: unsupported version %d", errSnapshotCorrupt, v)
	}
	fuBlob := br.Bytes(int(br.U32()))
	deBlob := br.Bytes(int(br.U32()))
	if br.Err != nil {
		return fmt.Errorf("%w: truncated section", errSnapshotCorrupt)
	}
	if br.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", errSnapshotCorrupt, br.Len())
	}
	// Validation passed: apply. Failures from here are fatal, not
	// fallback-able (see errSnapshotCorrupt).
	if len(fuBlob) > 0 {
		if err := fe.Restore(bytes.NewReader(fuBlob)); err != nil {
			return fmt.Errorf("fusion section: %w", err)
		}
	}
	if len(deBlob) > 0 {
		if err := de.Restore(bytes.NewReader(deBlob)); err != nil {
			return fmt.Errorf("defense section: %w", err)
		}
	}
	return nil
}

// journalAppend records one event in its MAC's partition journal, when
// journals are attached and the controller is not replaying history.
// Append failures are logged, not fatal: the controller keeps serving
// (degraded to in-memory) rather than dropping the fleet because a
// disk filled.
func (c *Controller) journalAppend(mac wifi.Addr, t journal.RecordType, data []byte) {
	js := c.journals()
	if js == nil {
		return
	}
	c.journalAppendTo(partition.IndexFor(mac, len(js)), t, data)
}

// journalAppendTo records one event in an explicit partition's journal
// — the MAC-less events' path (enrollment mutations go to partition 0).
func (c *Controller) journalAppendTo(p int, t journal.RecordType, data []byte) {
	js := c.journals()
	if js == nil || c.recovering.Load() {
		return
	}
	if p < 0 || p >= len(js) {
		p = 0
	}
	if _, err := js[p].Append(journal.Record{Type: t, Data: data}); err != nil && !errors.Is(err, journal.ErrClosed) {
		c.logf("controller: journal append p%d (%s): %v", p, t, err)
	}
}

// appendResume appends the frames a (re)connecting AP session must see
// to enforce the quarantines currently in force — resume directives
// carrying a fresh lease TTL, ordered by MAC for determinism — and
// reports how many it appended.
func (c *Controller) appendResume(b []byte) ([]byte, int) {
	set := c.partsLoaded()
	if set == nil {
		return b, 0
	}
	qs := set.Quarantined() // MAC order
	policy := c.DefensePolicy.WithDefaults()
	for _, st := range qs {
		d := defense.Directive{
			MAC:        st.MAC,
			Action:     st.Action,
			From:       defense.StateQuarantine,
			To:         defense.StateQuarantine,
			Reporter:   "resume",
			BearingDeg: st.BearingDeg,
			HasBearing: st.HasBearing,
			Pos:        st.Pos,
			HasPos:     st.HasPos,
			Score:      st.Score,
			Distance:   st.LastDistance,
			Threshold:  st.LastThreshold,
			Stage:      st.Stage,
			Trace:      st.Trace,
		}
		if policy.QuarantineTTL > 0 {
			d.TTL = policy.QuarantineTTL
		}
		b = appendFrame(b, MarshalDirective(Directive{Directive: d}))
	}
	return b, len(qs)
}
