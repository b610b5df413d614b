package journal

import (
	"testing"
	"time"
)

// binPayload is a minimal BinaryRecord for the allocation gate.
type binPayload struct{ a, b int64 }

func (p binPayload) AppendBinary(buf []byte) []byte {
	buf = append(buf, 0x08, byte(p.a<<1), 0x10, byte(p.b<<1))
	return buf
}

// TestAppendRecordAllocationFree gates the journal's hot append: a
// BinaryRecord framed onto a buffer with capacity must not allocate.
// (Interface conversion of a pointer-free value like binPayload does
// not box on modern Go; the resv/bb record types are structs behind
// the same interface.)
func TestAppendRecordAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is meaningless under the race detector")
	}
	buf := make([]byte, 0, 4096)
	var rec BinaryRecord = binPayload{a: 3, b: 9}
	got := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = AppendRecord(buf[:0], "resv.admit", rec)
		if err != nil {
			t.Fatal(err)
		}
	})
	if got > 0 {
		t.Errorf("AppendRecord allocates %.1f per op, want 0", got)
	}
}

// TestFollowerAppendFrameAllocationFree gates a follower's hot path: a
// journal that keeps no stream tail re-journals a checked frame into its
// warmed group-commit buffer without allocating. Retaining the frame
// would copy it.
func TestFollowerAppendFrameAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is meaningless under the race detector")
	}
	// The group commit never fires while the gate measures, so the
	// buffer only refills the capacity the warm-up left it.
	j, _ := openT(t, t.TempDir(), Options{Fsync: FsyncBatch, BatchInterval: time.Hour, TailBytes: 1 << 20})
	defer j.Close()
	raw, err := AppendRecord(nil, "resv.admit", binPayload{a: 3, b: 9})
	if err != nil {
		t.Fatal(err)
	}
	f, err := CheckFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := j.AppendFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	j.mu.Lock() // a group commit empties the buffer and keeps its capacity
	err = j.syncLocked()
	j.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if err := j.AppendFrame(f); err != nil {
			t.Fatal(err)
		}
	})
	if got > 0 {
		t.Errorf("AppendFrame allocates %.1f per frame, want 0", got)
	}
}

// TestGroupCommitAllocationFree gates the group-commit loop: appends
// spread over 60 batch windows of a batch-policy journal — each window
// a timer reset, a buffer swap, a write and an fsync — allocate nothing,
// in the appender or in the syncer. The count is process-wide, so the
// syncer's share is in it.
func TestGroupCommitAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is meaningless under the race detector")
	}
	synced := make(chan struct{}, 1)
	j, _ := openT(t, t.TempDir(), Options{
		Fsync:         FsyncBatch,
		BatchInterval: 100 * time.Microsecond,
		OnFsync: func() {
			select {
			case synced <- struct{}{}:
			default:
			}
		},
	})
	defer j.Close()
	var rec BinaryRecord = binPayload{a: 3, b: 9}
	window := func() {
		for i := 0; i < 4; i++ {
			if err := j.Append("resv.admit", rec); err != nil {
				t.Fatal(err)
			}
		}
		<-synced
	}
	for i := 0; i < 20; i++ { // both batch buffers and the timer exist
		window()
	}
	before := j.Stats().Fsyncs
	got := testing.AllocsPerRun(60, window)
	if n := j.Stats().Fsyncs - before; n < 50 {
		t.Fatalf("%d batch windows flushed while the gate measured, want at least 50", n)
	}
	if got > 0 {
		t.Errorf("a batch window of appends allocates %.1f, want 0", got)
	}
}
