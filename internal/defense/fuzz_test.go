package defense

// Native fuzzing of the snapshot codec, mirroring the fusion fuzzer:
// crash recovery hands Restore arbitrary on-disk bytes, so it must
// never panic, and whatever it accepts must restore to an engine whose
// own Save is a stable canonical form.

import (
	"bytes"
	"testing"
	"time"

	"secureangle/internal/geom"
	"secureangle/internal/wifi"
)

func fuzzDefenseEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(Config{TickInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func FuzzDefenseSnapshotRestore(f *testing.F) {
	seedEngine, err := New(Config{TickInterval: time.Hour})
	if err != nil {
		f.Fatal(err)
	}
	defer seedEngine.Close()
	var empty bytes.Buffer
	if err := seedEngine.Save(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	seedEngine.ReportSpoof(SpoofVerdict{
		AP: "ap1", MAC: wifi.Addr{2, 0, 0, 0, 0, 1}, Flagged: true,
		Distance: 0.9, Threshold: 0.12, BearingDeg: 60, HasBearing: true, Stage: "spoofcheck",
	})
	seedEngine.ReportFence(FenceVerdict{MAC: wifi.Addr{2, 0, 0, 0, 0, 2}, Seq: 1, Pos: geom.Point{X: 30, Y: 5}, Allowed: false})
	var populated bytes.Buffer
	if err := seedEngine.Save(&populated); err != nil {
		f.Fatal(err)
	}
	f.Add(populated.Bytes())
	f.Add([]byte{})
	f.Add([]byte("SADS"))
	f.Add([]byte("SADS\x00\x02\xff\xff\xff\xff")) // huge claimed count

	f.Fuzz(func(t *testing.T, data []byte) {
		e := fuzzDefenseEngine(t)
		if err := e.Restore(bytes.NewReader(data)); err != nil {
			return // rejected snapshots are the contract for bad bytes
		}
		var canon bytes.Buffer
		if err := e.Save(&canon); err != nil {
			t.Fatalf("restored engine cannot Save: %v", err)
		}
		e2 := fuzzDefenseEngine(t)
		if err := e2.Restore(bytes.NewReader(canon.Bytes())); err != nil {
			t.Fatalf("canonical snapshot rejected: %v\n%x", err, canon.Bytes())
		}
		var canon2 bytes.Buffer
		if err := e2.Save(&canon2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon.Bytes(), canon2.Bytes()) {
			t.Fatalf("canonical snapshot is not a fixed point:\n%x\nvs\n%x", canon.Bytes(), canon2.Bytes())
		}
	})
}
