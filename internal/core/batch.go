package core

import (
	"context"
	"runtime"
	"sync"

	"secureangle/internal/geom"
	"secureangle/internal/ofdm"
	"secureangle/internal/radio"
	"secureangle/internal/testbed"
	"secureangle/internal/wifi"
)

// BatchItem is one transmission for ObserveBatch: a transmitter position
// and the padded baseband it sends.
type BatchItem struct {
	TX       geom.Point
	Baseband []complex128
}

// BatchResult pairs the pipeline output for one batch item with its error;
// exactly one of the two is set. Per-item errors (a blocked transmitter,
// an undetected packet) do not fail the rest of the batch; each error is
// a *PipelineError wrapping the taxonomy sentinels, so callers dispatch
// with errors.Is(r.Err, ErrNotDetected) and friends.
type BatchResult struct {
	Report *Report
	Err    error
}

// workers resolves the estimation pool bound.
func (ap *AP) workers(items int) int {
	w := ap.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runPool fans fn over item indices on a bounded worker pool.
func runPool(n, workers int, fn func(i int)) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(start int) {
			defer wg.Done()
			for i := start; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}

// ObserveBatch is ObserveBatchContext with a background context.
func (ap *AP) ObserveBatch(items []BatchItem) []BatchResult {
	return ap.ObserveBatchContext(context.Background(), items)
}

// ObserveBatchContext receives a batch of transmissions and runs the
// estimation pipeline — detect, calibrate, covariance,
// eigendecomposition, manifold scan — on a bounded worker pool
// (Config.Workers, default GOMAXPROCS). Cancelling ctx stops the pool
// from dispatching further items; every item not yet started gets a
// StageDispatch *PipelineError wrapping ctx.Err(), while items already
// in flight finish normally. The slice is always fully populated.
//
// The order-sensitive half of reception (ray tracing through the shared
// environment, forking each item's noise stream from the front end's)
// runs serially in item order, so a batch draws a deterministic set of
// channel and noise realisations — the same, bit for bit, as the
// transmissions pushed one at a time through Observe; synthesis and
// everything downstream run concurrently. Results align with items by
// index.
func (ap *AP) ObserveBatchContext(ctx context.Context, items []BatchItem) []BatchResult {
	out := make([]BatchResult, len(items))
	prep := make([]radio.PreparedReceive, len(items))

	ap.prepMu.Lock()
	for i, it := range items {
		if err := ctx.Err(); err != nil {
			out[i].Err = ap.stageErr(StageDispatch, err)
			continue
		}
		prep[i], out[i].Err = ap.prepare(it.TX, it.Baseband)
	}
	ap.prepMu.Unlock()

	runPool(len(items), ap.workers(len(items)), func(i int) {
		if out[i].Err != nil {
			return
		}
		out[i].Report, out[i].Err = ap.observePrepared(ctx, &prep[i], items[i].Baseband)
	})
	return out
}

// ProcessStreamsBatch is ProcessStreamsBatchContext with a background
// context.
func (ap *AP) ProcessStreamsBatch(streamSets [][][]complex128) []BatchResult {
	return ap.ProcessStreamsBatchContext(context.Background(), streamSets)
}

// ProcessStreamsBatchContext runs the estimation pipeline on raw
// per-antenna captures (each element as for ProcessStreams) concurrently
// on the bounded worker pool. Each capture's packet window is calibrated
// in place, as in ProcessStreams. Results
// align with streamSets by index, and each result is identical to a
// serial ProcessStreams call on the same capture. Cancelling ctx stops
// dispatching; undispatched items get StageDispatch errors.
func (ap *AP) ProcessStreamsBatchContext(ctx context.Context, streamSets [][][]complex128) []BatchResult {
	out := make([]BatchResult, len(streamSets))
	runPool(len(streamSets), ap.workers(len(streamSets)), func(i int) {
		if err := ctx.Err(); err != nil {
			out[i].Err = ap.stageErr(StageDispatch, err)
			return
		}
		out[i].Report, out[i].Err = ap.process(streamSets[i])
	})
	return out
}

// FrameBatchItem is one MAC frame transmission for ProcessFrameBatch.
type FrameBatchItem struct {
	TX    geom.Point
	Frame *wifi.Frame
	Mod   ofdm.Modulation
}

// FrameBatchResult pairs a spoof-checked FrameReport with its error.
type FrameBatchResult struct {
	Report *FrameReport
	Err    error
}

// ProcessFrameBatch is ProcessFrameBatchContext with a background
// context.
func (ap *AP) ProcessFrameBatch(items []FrameBatchItem) []FrameBatchResult {
	return ap.ProcessFrameBatchContext(context.Background(), items)
}

// ProcessFrameBatchContext is the batch form of ProcessFrame:
// transmissions are synthesised and estimated as in ObserveBatchContext,
// then the spoof checks run serially in item order against the sharded
// registry, so enrollment and accept/flag decisions are deterministic
// for a given batch. Pipeline errors carry the item's transmitter
// address; cancellation marks undispatched items with StageDispatch
// errors and skips their spoof checks (a cancelled batch must not
// enroll).
func (ap *AP) ProcessFrameBatchContext(ctx context.Context, items []FrameBatchItem) []FrameBatchResult {
	out := make([]FrameBatchResult, len(items))
	obs := make([]BatchItem, len(items))
	for i, it := range items {
		bb, err := testbed.FrameBaseband(it.Frame, it.Mod)
		if err != nil {
			out[i].Err = err
			continue
		}
		obs[i] = BatchItem{TX: it.TX, Baseband: bb}
	}
	reps := ap.ObserveBatchContext(ctx, obs)
	for i, r := range reps {
		if out[i].Err != nil {
			continue
		}
		if r.Err != nil {
			out[i].Err = withMAC(r.Err, items[i].Frame.Addr2)
			continue
		}
		if err := ctx.Err(); err != nil {
			out[i].Err = &PipelineError{Stage: StageDispatch, AP: ap.Name, MAC: items[i].Frame.Addr2, Err: err}
			continue
		}
		out[i].Report, out[i].Err = ap.spoofCheck(r.Report, items[i].Frame.Addr2)
	}
	return out
}
