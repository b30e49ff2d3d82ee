package netproto

// Warm standby: a process that subscribes to a leader controller's
// journal stream (see replication.go), durably re-appends every record
// into its own journal layout, and continuously applies them into a
// warm Controller whose engines track the leader's state — clock
// pinned to stream time, journaling and directive fan-out suppressed.
// Promotion (operator-driven, or automatic after PromoteAfter of
// leader silence) flips the controller live: clock to wall time,
// engines snapshotted, and the caller serves the fleet's APs on it.
// Because the journal carries enrollment mutations, APs reconnect to
// the promoted standby with their original tokens and are resumed from
// the restored quarantine state.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"secureangle/internal/bin"
	"secureangle/internal/journal"
	"secureangle/internal/locate"
	"secureangle/internal/ops"
)

// StandbyConfig configures a warm standby.
type StandbyConfig struct {
	// LeaderAddr is the leader controller's AP port.
	LeaderAddr string
	// Dir is the standby's own journal directory; its layout (flat or
	// p0..p{N-1}) is created to match the partition count learned from
	// the leader's first frame.
	Dir string
	// Journal tunes the standby's journals (zero fields take the
	// package journal defaults).
	Journal journal.Options
	// Token authenticates the subscription — any enrolled AP's token
	// (journal streaming reuses the enrollment trust root).
	Token string
	// Configure, if set, is applied to the warm controller before its
	// journals attach — the place to mirror the leader's tuning fields
	// (fence, MinAPs, defense policy, auth posture) so the promoted
	// controller is decision-identical to the leader.
	Configure func(*Controller)
	// Fence is the promoted controller's fence (required).
	Fence *locate.Fence
	// PromoteAfter auto-promotes after this much leader silence while
	// disconnected or idle (0 = promote only via Promote/POST
	// /promote). Heartbeats arrive ~2/s per partition, so values of a
	// few seconds are already conservative.
	PromoteAfter time.Duration
	// ReconnectMin/Max bound the reconnect backoff (defaults 250ms/4s).
	ReconnectMin, ReconnectMax time.Duration
	// Logf, if set, receives diagnostic output.
	Logf func(format string, args ...any)
}

// Standby is a warm replica of a leader controller.
type Standby struct {
	cfg  StandbyConfig
	ctrl *Controller
	reg  *ops.Registry

	mu        sync.Mutex
	connected bool
	promoted  bool
	parts     int
	leaderLSN []uint64
	applied   []uint64
	lastFrame time.Time
	conn      net.Conn

	opsSrv *http.Server

	promoteOnce sync.Once
	promotedCh  chan struct{}
}

// NewStandby builds a warm standby. The controller it wraps is
// returned by Controller() after promotion; before that it is warm
// state, not to be served.
func NewStandby(cfg StandbyConfig) (*Standby, error) {
	if cfg.LeaderAddr == "" {
		return nil, errors.New("netproto: standby: empty LeaderAddr")
	}
	if cfg.Dir == "" {
		return nil, errors.New("netproto: standby: empty Dir")
	}
	if cfg.Fence == nil {
		return nil, errors.New("netproto: standby: nil Fence")
	}
	if cfg.ReconnectMin <= 0 {
		cfg.ReconnectMin = 250 * time.Millisecond
	}
	if cfg.ReconnectMax < cfg.ReconnectMin {
		cfg.ReconnectMax = 4 * time.Second
	}
	ctrl := NewController(cfg.Fence)
	ctrl.Logf = cfg.Logf
	if cfg.Configure != nil {
		cfg.Configure(ctrl)
	}
	s := &Standby{
		cfg:        cfg,
		ctrl:       ctrl,
		reg:        ops.NewRegistry(),
		promotedCh: make(chan struct{}),
	}
	s.registerOps()
	return s, nil
}

// Controller returns the wrapped controller. Before promotion it is
// warm restore state: read-only accessors (Threats, Quarantined,
// StatusReport) reflect the replicated stream, but it must not be
// served to APs until Promote.
func (s *Standby) Controller() *Controller { return s.ctrl }

// Promoted reports whether the standby has been promoted.
func (s *Standby) Promoted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.promoted
}

// PromotedCh closes when the standby promotes.
func (s *Standby) PromotedCh() <-chan struct{} { return s.promotedCh }

func (s *Standby) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Run follows the leader until ctx is cancelled or the standby
// promotes: connect, subscribe from the local journals' positions,
// apply the stream, reconnect with backoff on any error. It returns
// nil after promotion (the controller is then live and the caller
// serves it) and ctx.Err() on cancellation.
func (s *Standby) Run(ctx context.Context) error {
	backoff := s.cfg.ReconnectMin
	for {
		if s.Promoted() {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		err := s.followOnce(ctx)
		if s.Promoted() {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err != nil {
			s.logf("standby: leader connection: %v", err)
		}
		s.noteDisconnected()
		if s.maybeAutoPromote() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > s.cfg.ReconnectMax {
			backoff = s.cfg.ReconnectMax
		}
	}
}

// followOnce runs one leader session: dial, authenticate, subscribe,
// and apply frames until the connection breaks or the watchdog fires.
func (s *Standby) followOnce(ctx context.Context) error {
	d := net.Dialer{Timeout: 5 * time.Second}
	conn, err := d.DialContext(ctx, "tcp", s.cfg.LeaderAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	// Observer handshake: an empty Hello name keeps the standby out of
	// the leader's AP position table (it is never a bearing source),
	// and the token authenticates the subscription. The Welcome's read
	// may pull in the first Segment too: the apply loop reads through
	// the handshake's buffered reader.
	hctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	ag, err := handshake(hctx, conn, Hello{Token: s.cfg.Token})
	cancel()
	if err != nil {
		return err
	}
	br := ag.br

	// Subscribe from what the local journals already hold.
	if err := WriteMessage(conn, MarshalSegmentAck(s.subscribeAck())); err != nil {
		return err
	}
	s.mu.Lock()
	s.connected = true
	s.lastFrame = time.Now()
	s.conn = conn
	s.mu.Unlock()
	s.logf("standby: following %s", s.cfg.LeaderAddr)

	// The watchdog read deadline doubles as the leader-loss detector:
	// heartbeats arrive ~2/s, so a PromoteAfter silence surfaces as a
	// read timeout here.
	//
	// The loop reuses its decode scratch frame to frame: the read
	// buffer and the Segment record slice live for the connection, so
	// the steady-state apply path does not allocate per frame. Both
	// are consumed before the next read (AppendRecord and Apply copy
	// or decode what they keep), so the aliasing never escapes.
	var (
		readBuf []byte
		recs    []journal.Record
	)
	for {
		deadline := 30 * time.Second
		if s.cfg.PromoteAfter > 0 && s.cfg.PromoteAfter < deadline {
			deadline = s.cfg.PromoteAfter
		}
		conn.SetReadDeadline(time.Now().Add(deadline))
		body, err := ReadMessageBuf(br, readBuf)
		if err != nil {
			return err
		}
		if cap(body) > cap(readBuf) {
			readBuf = body
		}
		if len(body) == 0 || body[0] != TypeSegment {
			// Directives/alerts broadcast to every session; not ours to
			// act on. Validate the frame, then move on.
			if _, err := Unmarshal(body); err != nil {
				return err
			}
			continue
		}
		r := bin.NewReader(body[1:])
		seg, err := readSegment(&r, recs)
		if err != nil {
			return err
		}
		if cap(seg.Records) > cap(recs) {
			recs = seg.Records
		}
		if err := s.applySegment(seg); err != nil {
			return err
		}
		if err := WriteMessage(conn, MarshalSegmentAck(s.ackFor(seg.Partition))); err != nil {
			return err
		}
	}
}

// subscribeAck builds the initial position vector from the local
// journals (empty before the first session sized them — the leader
// then streams from the start of retained history).
func (s *Standby) subscribeAck() SegmentAck {
	js := s.ctrl.journals()
	ack := SegmentAck{}
	for i, j := range js {
		ack.Positions = append(ack.Positions, SegmentPos{Partition: i, LSN: j.LSN()})
	}
	return ack
}

// ackFor reports partition p's applied position.
func (s *Standby) ackFor(p int) SegmentAck {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p < 0 || p >= len(s.applied) {
		return SegmentAck{}
	}
	return SegmentAck{Positions: []SegmentPos{{Partition: p, LSN: s.applied[p]}}}
}

// applySegment durably appends and warm-applies one frame. The first
// frame sizes the standby: partition count from the leader, journals
// opened (recovering any prior local history into the engines), and
// the controller parked in warm mode — clock pinned to stream time,
// journaling and fan-out suppressed.
func (s *Standby) applySegment(seg Segment) error {
	if seg.PartCount <= 0 || seg.Partition < 0 || seg.Partition >= seg.PartCount {
		return fmt.Errorf("standby: bad segment header (partition %d of %d)", seg.Partition, seg.PartCount)
	}
	if err := s.ensureSized(seg.PartCount); err != nil {
		return err
	}
	s.mu.Lock()
	if seg.PartCount != s.parts {
		s.mu.Unlock()
		return fmt.Errorf("standby: leader repartitioned %d -> %d (wipe %s and restart)", s.parts, seg.PartCount, s.cfg.Dir)
	}
	s.lastFrame = time.Now()
	s.leaderLSN[seg.Partition] = seg.LeaderLSN
	applied := s.applied[seg.Partition]
	s.mu.Unlock()

	js := s.ctrl.journals()
	set := s.ctrl.partsLoaded()
	if js == nil || set == nil {
		return errors.New("standby: journals not attached")
	}
	j := js[seg.Partition]
	part := set.At(seg.Partition)
	hooks := s.ctrl.partitionHooks(part.Fusion, part.Defense)
	for _, rec := range seg.Records {
		if rec.LSN <= applied {
			continue // duplicate delivery after a reconnect
		}
		// Durable first, then warm-apply: a crash between the two
		// replays the record from the local journal on restart.
		if err := j.AppendRecord(rec); err != nil {
			return fmt.Errorf("standby: p%d append LSN %d: %w", seg.Partition, rec.LSN, err)
		}
		if err := journal.Apply(rec, hooks); err != nil {
			return fmt.Errorf("standby: p%d apply LSN %d: %w", seg.Partition, rec.LSN, err)
		}
		applied = rec.LSN
		if rec.Type == journal.RecSkip {
			if sk, err := journal.DecodeSkip(rec.Data); err == nil && sk.End > applied {
				applied = sk.End
			}
		}
	}
	s.mu.Lock()
	if applied > s.applied[seg.Partition] {
		s.applied[seg.Partition] = applied
	}
	s.mu.Unlock()
	return nil
}

// ensureSized sizes the standby to the leader's partition count on the
// first frame: opens the journal layout (recovering any prior local
// history into the engines) and parks the controller in warm mode.
func (s *Standby) ensureSized(parts int) error {
	s.mu.Lock()
	sized := s.parts != 0
	s.mu.Unlock()
	if sized {
		return nil
	}
	s.ctrl.Partitions = parts
	if err := s.ctrl.WithJournalDir(s.cfg.Dir, s.cfg.Journal); err != nil {
		return err
	}
	// attachJournals left the controller live; park it warm: the clock
	// re-pins to stream time at the first applied record, and
	// recovering suppresses journaling (the stream is appended
	// verbatim) and directive fan-out (no APs are served here).
	s.ctrl.recovering.Store(true)
	applied := make([]uint64, parts)
	for i, j := range s.ctrl.journals() {
		applied[i] = j.LSN()
	}
	s.mu.Lock()
	s.parts = parts
	s.leaderLSN = make([]uint64, parts)
	s.applied = applied
	s.mu.Unlock()
	s.logf("standby: sized to %d partition(s), restored through %v", parts, applied)
	return nil
}

func (s *Standby) noteDisconnected() {
	s.mu.Lock()
	s.connected = false
	s.conn = nil
	s.mu.Unlock()
}

// maybeAutoPromote promotes when the leader has been silent past
// PromoteAfter (and the standby has actually followed it at some
// point — a standby that never reached the leader keeps retrying).
func (s *Standby) maybeAutoPromote() bool {
	s.mu.Lock()
	silent := s.parts != 0 && s.cfg.PromoteAfter > 0 &&
		!s.lastFrame.IsZero() && time.Since(s.lastFrame) >= s.cfg.PromoteAfter
	s.mu.Unlock()
	if !silent {
		return false
	}
	s.logf("standby: leader silent past %v, promoting", s.cfg.PromoteAfter)
	s.Promote()
	return true
}

// Promote flips the warm controller live: the leader session (if any)
// is dropped, the engine clock returns to wall time, journaling and
// fan-out resume, and every partition is snapshotted so a crash right
// after promotion restores instantly. Idempotent. After it returns the
// caller serves the controller (Serve/ServeOps) and the fleet's APs
// reconnect with their original enrollment tokens, receiving resume
// directives for the restored quarantines.
func (s *Standby) Promote() {
	s.promoteOnce.Do(func() {
		s.mu.Lock()
		s.promoted = true
		conn := s.conn
		s.conn = nil
		s.mu.Unlock()
		if conn != nil {
			conn.Close()
		}
		s.ctrl.clk.Live()
		s.ctrl.recovering.Store(false)
		if s.ctrl.journals() != nil && s.ctrl.snapshotsEnabled() {
			if err := s.ctrl.SnapshotJournal(); err != nil {
				s.logf("standby: promotion snapshot: %v", err)
			}
		}
		s.logf("standby: promoted")
		close(s.promotedCh)
	})
}

// StandbyPartition is one partition's replication position in a
// StandbyStatus.
type StandbyPartition struct {
	Partition  int    `json:"partition"`
	LeaderLSN  uint64 `json:"leader_lsn"`
	AppliedLSN uint64 `json:"applied_lsn"`
	Lag        uint64 `json:"lag"`
}

// StandbyStatus is the standby's own health document, embedded in the
// /status reply next to the warm controller's state.
type StandbyStatus struct {
	Leader    string `json:"leader"`
	Connected bool   `json:"connected"`
	Promoted  bool   `json:"promoted"`
	// FailoverReady is true when the standby is connected and every
	// partition's lag is zero: promotion would lose nothing.
	FailoverReady bool               `json:"failover_ready"`
	MaxLag        uint64             `json:"max_lag"`
	Partitions    []StandbyPartition `json:"partitions,omitempty"`
	LastFrame     time.Time          `json:"last_frame,omitempty"`
}

// Status reports the standby's replication state.
func (s *Standby) Status() StandbyStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StandbyStatus{
		Leader:    s.cfg.LeaderAddr,
		Connected: s.connected,
		Promoted:  s.promoted,
		LastFrame: s.lastFrame,
	}
	for i := 0; i < s.parts; i++ {
		lag := uint64(0)
		if s.leaderLSN[i] > s.applied[i] {
			lag = s.leaderLSN[i] - s.applied[i]
		}
		st.Partitions = append(st.Partitions, StandbyPartition{
			Partition:  i,
			LeaderLSN:  s.leaderLSN[i],
			AppliedLSN: s.applied[i],
			Lag:        lag,
		})
		if lag > st.MaxLag {
			st.MaxLag = lag
		}
	}
	st.FailoverReady = s.connected && s.parts > 0 && st.MaxLag == 0
	return st
}

// registerOps installs the standby's collector families on its private
// registry (private so a leader and standby in one process — tests —
// do not clobber each other's closures on the default registry).
func (s *Standby) registerOps() {
	s.reg.RegisterCollector("secureangle_journal_replication_lag",
		"Journal records the leader has assigned but this standby has not yet applied, per partition.", ops.KindGauge,
		func(emit func(string, float64)) {
			for _, p := range s.Status().Partitions {
				emit(fmt.Sprintf(`partition="%d"`, p.Partition), float64(p.Lag))
			}
		})
	s.reg.RegisterCollector("secureangle_standby_failover_ready",
		"1 when the standby is connected with zero lag on every partition.", ops.KindGauge,
		func(emit func(string, float64)) {
			v := 0.0
			if s.Status().FailoverReady {
				v = 1
			}
			emit("", v)
		})
	s.reg.RegisterCollector("secureangle_standby_connected",
		"1 while the leader session is up.", ops.KindGauge,
		func(emit func(string, float64)) {
			v := 0.0
			if s.Status().Connected {
				v = 1
			}
			emit("", v)
		})
}

// OpsHandler returns the standby's operations HTTP handler:
//
//	GET  /metrics   Prometheus text exposition (standby registry)
//	GET  /status    controller Status document plus a "standby" section
//	POST /promote   promote now; returns the post-promotion status
//	GET  /debug/pprof/...  runtime profiles (when the wrapped
//	                controller's PprofOps is set, e.g. via Configure)
func (s *Standby) OpsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.reg.Handler())
	if s.ctrl.PprofOps {
		mountPprof(mux)
	}
	mux.HandleFunc("/status", readOnlyJSON(func(w http.ResponseWriter, r *http.Request) {
		doc := struct {
			Status
			Standby StandbyStatus `json:"standby"`
		}{s.ctrl.StatusReport(), s.Status()}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	}))
	mux.HandleFunc("/promote", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, `{"error":"method not allowed"}`, http.StatusMethodNotAllowed)
			return
		}
		s.Promote()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.Status())
	})
	return mux
}

// ServeOps starts the standby's operations HTTP server on ln. It
// returns immediately; Close shuts it down.
func (s *Standby) ServeOps(ln net.Listener) {
	srv := &http.Server{Handler: s.OpsHandler(), ReadHeaderTimeout: 5 * time.Second}
	s.mu.Lock()
	s.opsSrv = srv
	s.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
}

// Close shuts the standby down: the leader session, the ops server,
// and the wrapped controller (sealing its journals).
func (s *Standby) Close() {
	s.mu.Lock()
	conn := s.conn
	s.conn = nil
	srv := s.opsSrv
	s.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	if srv != nil {
		srv.Close()
	}
	s.ctrl.Close()
}
