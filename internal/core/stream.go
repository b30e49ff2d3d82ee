package core

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"secureangle/internal/radio"
)

// ErrStreamClosed reports a Submit on a stream whose Close has begun.
var ErrStreamClosed = errors.New("secureangle: stream closed")

// StreamResult is one ordered output of a Stream. Seq is the value the
// corresponding Submit returned, and results are delivered strictly in
// Seq order. Err values are *PipelineError wrapping the taxonomy
// sentinels, exactly as in BatchResult.
type StreamResult struct {
	Seq    uint64
	Report *Report
	Err    error
}

// Stream is the always-on ingestion handle of the v2 API: an AP as a
// service rather than a call-per-packet library. Submit accepts
// transmissions with bounded buffering (it blocks when depth results
// are in flight — backpressure instead of unbounded queues), a worker
// pool runs the estimation pipeline concurrently, and Results delivers
// reports in submission order.
//
//	s := ap.Stream(ctx, 16)
//	go func() {
//		for r := range s.Results() { ... }
//	}()
//	for pkt := range packets {
//		if _, err := s.Submit(ctx, pkt); err != nil { break }
//	}
//	s.Close()
//
// The serial half of reception (channel resolution, noise-stream forks)
// runs at Submit time in submission order, and the workers run the same
// per-item body as ObserveBatch — synthesis into a pooled scratch arena,
// then estimation — so a stream draws, bit for bit, the reports
// ObserveBatch or a run of Observe calls draws over the same items.
type Stream struct {
	ap     *AP
	ctx    context.Context
	cancel context.CancelFunc

	sem  chan struct{} // in-flight bound: submitted but not yet delivered
	work chan streamJob
	done chan StreamResult // completed jobs to the emitter; cap == depth, never blocks

	results  chan StreamResult
	emitDone chan struct{}

	mu      sync.Mutex
	closed  bool
	nextSeq uint64

	wg sync.WaitGroup // workers
}

// streamJob is one submitted transmission after its serial prepare.
type streamJob struct {
	seq  uint64
	prep radio.PreparedReceive
	bb   []complex128
	err  error // prepare-stage failure, carried to the result slot
}

// Stream opens an ingestion handle on the AP. depth bounds the number
// of in-flight observations (submitted but not yet delivered on
// Results); depth <= 0 defaults to twice the worker-pool width. The
// stream stops accepting work when ctx is cancelled; queued items then
// resolve to StageDispatch errors. Call Close to flush and release the
// workers.
func (ap *AP) Stream(ctx context.Context, depth int) *Stream {
	workers := ap.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if depth <= 0 {
		depth = 2 * workers
	}
	if workers > depth {
		workers = depth
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &Stream{
		ap:       ap,
		ctx:      sctx,
		cancel:   cancel,
		sem:      make(chan struct{}, depth),
		work:     make(chan streamJob, depth),
		done:     make(chan StreamResult, depth),
		results:  make(chan StreamResult),
		emitDone: make(chan struct{}),
	}
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for job := range s.work {
				s.done <- s.runJob(job)
			}
		}()
	}
	go s.emit()
	// A cancelled context closes the stream so Results always terminates.
	go func() {
		<-sctx.Done()
		s.Close()
	}()
	return s
}

// Submit queues one transmission and returns its sequence number. It
// blocks while depth observations are in flight (backpressure) and
// fails once ctx or the stream's context is cancelled, or after Close.
func (s *Stream) Submit(ctx context.Context, it BatchItem) (uint64, error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return 0, ctx.Err()
	case <-s.ctx.Done():
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return 0, ErrStreamClosed
		}
		return 0, s.ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		<-s.sem
		return 0, ErrStreamClosed
	}
	seq := s.nextSeq
	s.nextSeq++
	job := streamJob{seq: seq, bb: it.Baseband}
	// The order-sensitive half runs here, serialised by s.mu in
	// submission order and by ap.prepMu against concurrent batch calls.
	s.ap.prepMu.Lock()
	job.prep, job.err = s.ap.prepare(it.TX, it.Baseband)
	s.ap.prepMu.Unlock()
	s.work <- job // cap(work) == cap(sem): never blocks
	return seq, nil
}

// Results delivers reports in submission order. The channel closes
// after Close (or context cancellation) once every in-flight item has
// been delivered or discarded.
func (s *Stream) Results() <-chan StreamResult { return s.results }

// runJob executes the concurrent half of the pipeline for one job.
func (s *Stream) runJob(j streamJob) StreamResult {
	r := StreamResult{Seq: j.seq, Err: j.err}
	if r.Err == nil {
		r.Report, r.Err = s.ap.observePrepared(s.ctx, &j.prep, j.bb)
	}
	return r
}

// emit reorders completed jobs into submission order and delivers them.
func (s *Stream) emit() {
	defer close(s.emitDone)
	defer close(s.results)
	pending := make(map[uint64]StreamResult)
	var next uint64
	for r := range s.done {
		pending[r.Seq] = r
		for {
			rr, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			select {
			case s.results <- rr:
			case <-s.ctx.Done():
				// Consumer may be gone after cancellation: try once
				// more without blocking, then discard.
				select {
				case s.results <- rr:
				default:
				}
			}
			<-s.sem
		}
	}
}

// Close stops accepting submissions, flushes every in-flight item to
// Results, closes Results, and releases the workers. It blocks until
// the flush completes, so drain Results concurrently. Safe to call more
// than once.
func (s *Stream) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.emitDone
		return
	}
	s.closed = true
	close(s.work)
	s.mu.Unlock()

	s.wg.Wait()   // workers drained s.work; all results are in s.done
	close(s.done) // emitter flushes the reorder buffer and closes results
	<-s.emitDone
	s.cancel() // release the context watcher
}
