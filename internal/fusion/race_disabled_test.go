//go:build !race

package fusion

const raceDetectorEnabled = false
