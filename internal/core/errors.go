package core

import (
	"errors"
	"fmt"

	"secureangle/internal/radio"
	"secureangle/internal/wifi"
)

// The error taxonomy of the v2 API. Every failure the pipeline can
// produce is one of these sentinels wrapped in a *PipelineError that
// records where it happened, so callers dispatch with errors.Is/As
// instead of matching strings:
//
//	res := ap.ObserveBatchContext(ctx, items)
//	for _, r := range res {
//		switch {
//		case errors.Is(r.Err, core.ErrNotDetected): // unhearable, skip
//		case errors.Is(r.Err, core.ErrBlocked):     // no propagation path
//		case r.Err != nil:                          // real failure
//		}
//	}
var (
	// ErrNotDetected reports that the Schmidl-Cox detector found no
	// packet in the received samples (noise-only capture, or SNR below
	// the detection cliff).
	ErrNotDetected = errors.New("secureangle: no packet detected")
	// ErrBlocked reports a transmitter with no propagation path to the
	// AP. It is the radio package's sentinel re-exported, so errors.Is
	// works whichever layer produced it.
	ErrBlocked = radio.ErrBlocked
	// ErrNotCalibrated reports an observation attempted before the
	// section 2.2 calibration ran (Config.DeferCalibration without a
	// subsequent Calibrate call).
	ErrNotCalibrated = errors.New("secureangle: front end not calibrated")
	// ErrTooFewSnapshots reports a capture too short for a full-rank
	// antenna covariance (fewer snapshots than antennas).
	ErrTooFewSnapshots = errors.New("secureangle: too few snapshots for a full-rank covariance")
)

// Pipeline stage names recorded in PipelineError.Stage, in pipeline
// order. StageDispatch is not a signal-processing stage: it marks work
// that was never run because the batch's context was cancelled first.
const (
	StageDispatch   = "dispatch"
	StageReceive    = "receive"
	StageCalibrate  = "calibrate"
	StageDetect     = "detect"
	StageAlign      = "align"
	StageEstimate   = "estimate"
	StageSpoofCheck = "spoofcheck"
)

// PipelineError is the structured error the v2 pipeline returns: which
// stage failed, on which AP, and (for frame observations) which
// transmitter address was being processed. It wraps the underlying
// cause, so errors.Is against the sentinels above and errors.As for the
// struct itself both work.
type PipelineError struct {
	// Stage is one of the Stage* constants.
	Stage string
	// AP names the access point that produced the error.
	AP string
	// MAC is the transmitter address, when the observation was a MAC
	// frame (zero otherwise).
	MAC wifi.Addr
	// Err is the underlying cause.
	Err error
}

// Error formats the stage, AP, and (when set) MAC around the cause.
func (e *PipelineError) Error() string {
	if e.MAC != (wifi.Addr{}) {
		return fmt.Sprintf("%s: %s [%s]: %v", e.AP, e.Stage, e.MAC, e.Err)
	}
	return fmt.Sprintf("%s: %s: %v", e.AP, e.Stage, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *PipelineError) Unwrap() error { return e.Err }

// stageErr wraps err with this AP's identity and the failing stage.
func (ap *AP) stageErr(stage string, err error) error {
	countStageErr(stage)
	return &PipelineError{Stage: stage, AP: ap.Name, Err: err}
}

// withMAC stamps the transmitter address onto a pipeline error, for the
// frame entry points. Non-pipeline errors pass through unchanged.
func withMAC(err error, mac wifi.Addr) error {
	var pe *PipelineError
	if errors.As(err, &pe) && pe.MAC == (wifi.Addr{}) {
		pe.MAC = mac
	}
	return err
}
