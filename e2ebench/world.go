package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"secureangle/internal/defense"
	"secureangle/internal/geom"
	"secureangle/internal/journal"
	"secureangle/internal/locate"
	"secureangle/internal/netproto"
	"secureangle/internal/testbed"
)

// controllerConfig is the part of a controller each workload chooses.
type controllerConfig struct {
	partitions int
	policy     defense.Policy
	dir        string
}

// startController builds a journaled controller for the building fence
// and serves it on a loopback port. Periodic snapshots are off so the
// timed window measures the event path alone.
//
// Every record is journalled (encoded, checksummed, buffered, written)
// but nothing is fsynced in the timed window: FsyncNever, and segments
// too large to be sealed (sealing fsyncs). On the shared disk these
// numbers were taken on, an fsync makes the latency tails follow the
// device instead of the program: FsyncInterval's background sync holds
// the append lock through each fdatasync, which put controller_ingest's
// decision p99 anywhere from 14 to 37 ms across ten runs, and
// FsyncAlways spread spoof_storm's p99 from 2.9 to 24.5 ms. The traced
// run still reports the durable append costs (journal.append_us,
// journal.append_batch_us_per_record).
func startController(fence *locate.Fence, cfg controllerConfig) (*netproto.Controller, string, error) {
	c := netproto.NewController(fence)
	c.Partitions = cfg.partitions
	c.DefensePolicy = cfg.policy
	c.SnapshotInterval = -1
	if err := c.WithJournalDir(cfg.dir, journal.Options{Fsync: journal.FsyncNever, SegmentBytes: 1 << 30}); err != nil {
		return nil, "", fmt.Errorf("journal: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		return nil, "", err
	}
	c.Serve(ln)
	return c, ln.Addr().String(), nil
}

// buildingFence is the testbed building shell as a virtual fence.
func buildingFence() *locate.Fence {
	_, shell := testbed.Building()
	return &locate.Fence{Boundary: shell}
}

// agentConn is one AP agent session: the netproto Agent over a
// byte-counting connection, plus the consumer goroutine that timestamps
// what the controller pushes to it.
type agentConn struct {
	name string
	ag   *netproto.Agent
	cc   *countingConn

	directives atomic.Uint64 // directive frames received
	legacy     atomic.Uint64 // legacy Alert mirrors received
	wg         sync.WaitGroup
}

// dialAgent opens an agent session named name at pos (the v5
// handshake, so trace IDs ride the wire).
func dialAgent(addr, name string, pos geom.Point) (*agentConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: conn}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ag, err := netproto.NewAgentContext(ctx, cc, netproto.Hello{Name: name, Pos: pos})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("agent %s: %w", name, err)
	}
	return &agentConn{name: name, ag: ag, cc: cc}, nil
}

// listen starts the agent's consumer goroutine. It only timestamps and
// counts: each directive goes to onDirective with its arrival time, each
// complete threat reply to onThreats (nil ignores them). It runs until
// the connection closes; close waits for it.
func (a *agentConn) listen(onDirective func(netproto.Directive, time.Time), onThreats func(id uint32, at time.Time)) {
	dirs, legacy := a.ag.Directives(), a.ag.Alerts()
	var threats <-chan netproto.Threats
	if onThreats != nil {
		threats = a.ag.ThreatReplies()
	}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		for dirs != nil || legacy != nil || threats != nil {
			select {
			case d, ok := <-dirs:
				if !ok {
					dirs = nil
					continue
				}
				a.directives.Add(1)
				onDirective(d, time.Now())
			case _, ok := <-legacy:
				if !ok {
					legacy = nil
					continue
				}
				a.legacy.Add(1)
			case t, ok := <-threats:
				if !ok {
					threats = nil
					continue
				}
				if !t.More {
					onThreats(t.ID, time.Now())
				}
			}
		}
	}()
}

// close ends the session and waits for its consumer goroutine.
func (a *agentConn) close() {
	a.ag.Close()
	a.wg.Wait()
}

// queueDepthSampler polls the controller's per-session broadcast queue
// depth (APHealth) and keeps the maximum, for netproto.broadcast_queue_max.
type queueDepthSampler struct {
	max  atomic.Int64
	stop chan struct{}
	done chan struct{}
}

func sampleQueueDepth(c *netproto.Controller, every time.Duration) *queueDepthSampler {
	s := &queueDepthSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				for _, h := range c.APHealth() {
					if d := int64(h.QueueDepth); d > s.max.Load() {
						s.max.Store(d)
					}
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the deepest queue it saw.
func (s *queueDepthSampler) finish() int {
	close(s.stop)
	<-s.done
	return int(s.max.Load())
}

// liveThreats counts the controller's tracked threat entries.
func liveThreats(c *netproto.Controller) int {
	d := c.StatusReport().Defense
	return d.Allow + d.Monitor + d.Quarantine
}

// journalTotals sums the controller's journal counters.
func journalTotals(c *netproto.Controller) journal.Stats {
	if st := c.StatusReport(); st.Journal != nil {
		return *st.Journal
	}
	return journal.Stats{}
}
