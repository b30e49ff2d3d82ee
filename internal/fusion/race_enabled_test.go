//go:build race

package fusion

// raceDetectorEnabled reports whether this test binary was built with
// -race. The race detector adds shadow memory and per-allocation
// bookkeeping, so heap-size measurements are not meaningful there.
const raceDetectorEnabled = true
