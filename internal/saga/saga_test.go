package saga

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"e2eqos/internal/journal"
)

// fakeJournal keeps every appended record as the frame the real journal
// would write, and can replay the frames into a fresh coordinator the
// way recovery and a replication follower do.
type fakeJournal struct {
	mu     sync.Mutex
	ops    []string
	frames [][]byte
}

func (f *fakeJournal) Append(op string, data journal.BinaryRecord) error {
	frame, err := journal.AppendRecord(nil, op, data)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.ops = append(f.ops, op)
	f.frames = append(f.frames, frame)
	f.mu.Unlock()
	return nil
}

func (f *fakeJournal) replayInto(c *Coordinator) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, frame := range f.frames {
		rec, _, err := journal.DecodeRecord(frame)
		if err != nil {
			return err
		}
		if err := c.ApplyRecord(rec); err != nil {
			return err
		}
	}
	return nil
}

func (f *fakeJournal) opList() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.ops...)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func assertOps(t *testing.T, got, want []string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("journal ops\n got %v\nwant %v", got, want)
	}
}

// TestCommitDropsCompensations: a committed saga never runs its
// compensations and leaves no live state.
func TestCommitDropsCompensations(t *testing.T) {
	j := &fakeJournal{}
	c := journaled(Options{}, j)
	defer c.Close()
	ran := 0
	c.RegisterExec("undo", func([]byte) error { ran++; return nil })
	c.Did("s1", "undo", []byte("a"))
	c.Did("s1", "undo", []byte("b"))
	c.Commit("s1")
	if ran != 0 {
		t.Fatalf("compensations ran %d times after commit", ran)
	}
	if c.Live() != 0 {
		t.Fatalf("live=%d after commit", c.Live())
	}
	assertOps(t, j.opList(), []string{OpStep, OpStep, OpEnd})
}

// TestAbortCompensatesInReverse: aborting runs compensations newest
// first and journals each settlement but the last, whose OpEnd closes
// the saga in its place.
func TestAbortCompensatesInReverse(t *testing.T) {
	j := &fakeJournal{}
	c := journaled(Options{}, j)
	defer c.Close()
	var mu sync.Mutex
	var order []string
	c.RegisterExec("undo", func(data []byte) error {
		s := string(data)
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
		return nil
	})
	for _, d := range []string{"first", "second", "third"} {
		c.Did("s1", "undo", []byte(d))
	}
	c.Abort("s1")
	waitFor(t, "saga to close", func() bool { return c.Live() == 0 })
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(order, []string{"third", "second", "first"}) {
		t.Fatalf("compensation order %v, want reverse registration order", order)
	}
	assertOps(t, j.opList(), []string{
		OpStep, OpStep, OpStep, OpComp, OpComp, OpEnd,
	})
}

// endGate is a journal whose OpEnd appends announce themselves on
// ending and then wait for release.
type endGate struct {
	fakeJournal
	ending, release chan struct{}
}

func (g *endGate) Append(op string, data journal.BinaryRecord) error {
	if op == OpEnd {
		g.ending <- struct{}{}
		<-g.release
	}
	return g.fakeJournal.Append(op, data)
}

// TestSagaLiveUntilItsEndIsJournaled: a closing saga counts in Live
// until its OpEnd is appended and OnCompensated has returned, so a
// reader that sees Live() == 0 sees the end journaled and counted —
// whether the saga closed by compensation or by Commit.
func TestSagaLiveUntilItsEndIsJournaled(t *testing.T) {
	g := &endGate{ending: make(chan struct{}), release: make(chan struct{})}
	var compensated atomic.Bool
	c := journaled(Options{OnCompensated: func(string, Step) { compensated.Store(true) }}, g)
	defer c.Close()
	c.RegisterExec("undo", func([]byte) error { return nil })
	abortOne(c, "s1", "undo", nil)
	<-g.ending
	if n := c.Live(); n != 1 {
		t.Errorf("Live() = %d while the compensated saga's end is being journaled, want 1", n)
	}
	g.release <- struct{}{}
	waitFor(t, "saga to close", func() bool { return c.Live() == 0 })
	if !compensated.Load() {
		t.Fatal("Live() read 0 before OnCompensated ran")
	}
	assertOps(t, g.opList(), []string{OpStep, OpEnd})

	c.Did("s2", "undo", nil)
	go c.Commit("s2")
	<-g.ending
	if n := c.Live(); n != 1 {
		t.Errorf("Live() = %d while the committed saga's end is being journaled, want 1", n)
	}
	g.release <- struct{}{}
	waitFor(t, "saga to close", func() bool { return c.Live() == 0 })
	assertOps(t, g.opList(), []string{OpStep, OpEnd, OpStep, OpEnd})
}

// journaled builds a coordinator with j attached.
func journaled(opts Options, j Journal) *Coordinator {
	c := New(opts)
	c.AttachJournal(j)
	return c
}

// abortOne runs a one-step saga born aborting, the way the broker owes
// a downstream rollback cancel: Did, Abort.
func abortOne(c *Coordinator, id, kind string, data []byte) {
	c.Did(id, kind, data)
	c.Abort(id)
}

// TestRetryWithBackoff: a failing compensation retries and eventually
// settles within the attempt budget.
func TestRetryWithBackoff(t *testing.T) {
	j := &fakeJournal{}
	c := journaled(Options{Backoff: time.Millisecond}, j)
	defer c.Close()
	var mu sync.Mutex
	calls := 0
	c.RegisterExec("flaky", func([]byte) error {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	abortOne(c, "r1", "flaky", nil)
	waitFor(t, "compensation to settle", func() bool { return c.Live() == 0 })
	mu.Lock()
	defer mu.Unlock()
	if calls != 3 {
		t.Fatalf("executor ran %d times, want 3", calls)
	}
	assertOps(t, j.opList(), []string{OpStep, OpEnd})
}

// TestAbandonment: a compensation that never succeeds is abandoned
// after Attempts — reported via OnAbandoned, never journaled done,
// and the saga stays live (the debt is visible).
func TestAbandonment(t *testing.T) {
	j := &fakeJournal{}
	var abandoned []Step
	var mu sync.Mutex
	done := make(chan struct{})
	c := journaled(Options{
		Backoff: time.Millisecond,
		OnAbandoned: func(id string, s Step) {
			mu.Lock()
			abandoned = append(abandoned, s)
			mu.Unlock()
			close(done)
		},
	}, j)
	defer c.Close()
	calls := 0
	c.RegisterExec("doomed", func([]byte) error {
		mu.Lock()
		calls++
		mu.Unlock()
		return errors.New("permanent")
	})
	abortOne(c, "r1", "doomed", []byte("x"))
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("OnAbandoned never fired")
	}
	waitFor(t, "worker to park", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(abandoned) == 1
	})
	mu.Lock()
	if calls != Attempts {
		mu.Unlock()
		t.Fatalf("executor ran %d times, want Attempts=%d", calls, Attempts)
	}
	if abandoned[0].Kind != "doomed" {
		mu.Unlock()
		t.Fatalf("abandoned step kind %q", abandoned[0].Kind)
	}
	mu.Unlock()
	if c.Live() != 1 {
		t.Fatalf("live=%d, abandoned saga must stay open", c.Live())
	}
	// No OpComp, no OpEnd: the journal still owes this compensation.
	assertOps(t, j.opList(), []string{OpStep})
}

// TestCrashReplayResumesCompensation: replay a journal that ends
// mid-abort into a fresh coordinator; Resume re-runs the unfinished
// compensations (and only those) with a fresh budget.
func TestCrashReplayResumesCompensation(t *testing.T) {
	// First incarnation: registers two steps, compensates one, then
	// "crashes" (we stop it before the second settles).
	j := &fakeJournal{}
	c1 := journaled(Options{Backoff: time.Millisecond}, j)
	block := errors.New("down")
	var mu sync.Mutex
	firstDone := false
	c1.RegisterExec("undo", func(data []byte) error {
		s := string(data)
		mu.Lock()
		defer mu.Unlock()
		if s == "late" { // registered second, compensated first
			firstDone = true
			return nil
		}
		return block // the other one keeps failing until the crash
	})
	c1.Did("s1", "undo", []byte("early"))
	c1.Did("s1", "undo", []byte("late"))
	c1.Abort("s1")
	waitFor(t, "first compensation", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstDone
	})
	waitFor(t, "late comp journaled", func() bool { return len(j.opList()) >= 3 })
	c1.Close() // crash

	// Second incarnation: replay the journal, then Resume.
	c2 := New(Options{Backoff: time.Millisecond})
	defer c2.Close()
	var replayed []string
	c2.RegisterExec("undo", func(data []byte) error {
		s := string(data)
		mu.Lock()
		replayed = append(replayed, s)
		mu.Unlock()
		return nil
	})
	if err := j.replayInto(c2); err != nil {
		t.Fatal(err)
	}
	if c2.Live() != 1 {
		t.Fatalf("replay left live=%d, want 1", c2.Live())
	}
	j2 := &fakeJournal{}
	c2.AttachJournal(j2)
	if n := c2.Resume(); n != 1 {
		t.Fatalf("Resume resumed %d sagas, want 1", n)
	}
	waitFor(t, "resumed saga to close", func() bool { return c2.Live() == 0 })
	mu.Lock()
	defer mu.Unlock()
	// Only the un-compensated step re-runs: "late" settled before the
	// crash and its OpComp is in the journal; settling "early" leaves
	// nothing owed, so its OpEnd is the one record.
	if !reflect.DeepEqual(replayed, []string{"early"}) {
		t.Fatalf("resumed compensations %v, want only the unfinished one", replayed)
	}
	assertOps(t, j2.opList(), []string{OpEnd})
}

// TestPresumedAbort: a saga still open in the journal (crash before the
// outcome was decided) is aborted by Resume, which journals nothing for
// the abort.
func TestPresumedAbort(t *testing.T) {
	j := &fakeJournal{}
	c1 := journaled(Options{}, j)
	c1.Did("s1", "undo", []byte(`1`))
	c1.Close() // crash before commit/abort

	c2 := New(Options{Backoff: time.Millisecond})
	defer c2.Close()
	var mu sync.Mutex
	compensated := 0
	c2.RegisterExec("undo", func([]byte) error {
		mu.Lock()
		compensated++
		mu.Unlock()
		return nil
	})
	if err := j.replayInto(c2); err != nil {
		t.Fatal(err)
	}
	j2 := &fakeJournal{}
	c2.AttachJournal(j2)
	var aborted []string
	c2.opts.OnAborted = func(id string) { aborted = append(aborted, id) }
	if n := c2.Resume(); n != 1 {
		t.Fatalf("Resume resumed %d, want 1", n)
	}
	waitFor(t, "presumed-abort compensation", func() bool { return c2.Live() == 0 })
	mu.Lock()
	defer mu.Unlock()
	if compensated != 1 {
		t.Fatalf("compensated %d steps, want 1", compensated)
	}
	if !reflect.DeepEqual(aborted, []string{"s1"}) {
		t.Fatalf("OnAborted calls %v", aborted)
	}
	assertOps(t, j2.opList(), []string{OpEnd})
}

// TestSnapshotRoundTrip: snapshot bytes are deterministic and restore
// reproduces the saga set exactly.
func TestSnapshotRoundTrip(t *testing.T) {
	c := New(Options{})
	defer c.Close()
	for _, id := range []string{"b", "a"} { // insertion order must not matter
		c.Did(id, "undo", []byte(id))
	}
	s1 := c.Snapshot()
	s2 := c.Snapshot()
	if string(s1) != string(s2) {
		t.Fatalf("snapshot not deterministic:\n%s\n%s", s1, s2)
	}

	c2 := New(Options{Backoff: time.Millisecond})
	defer c2.Close()
	if err := c2.Restore(s1); err != nil {
		t.Fatal(err)
	}
	if c2.Live() != 2 {
		t.Fatalf("restored live=%d, want 2", c2.Live())
	}
	if string(c2.Snapshot()) != string(s1) {
		t.Fatalf("restored snapshot differs:\n%s\n%s", c2.Snapshot(), s1)
	}
	// Restored sagas resume as presumed aborts and compensate.
	var mu sync.Mutex
	var got []string
	c2.RegisterExec("undo", func(data []byte) error {
		s := string(data)
		mu.Lock()
		got = append(got, s)
		mu.Unlock()
		return nil
	})
	if n := c2.Resume(); n != 2 {
		t.Fatalf("Resume resumed %d, want 2", n)
	}
	waitFor(t, "restored sagas to close", func() bool { return c2.Live() == 0 })
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("compensated %v", got)
	}
	// Empty coordinator snapshots to nil.
	if b := c2.Snapshot(); b != nil {
		t.Fatalf("empty snapshot = %q, want nil", b)
	}
	// And an empty snapshot restores to no sagas, whatever was live.
	if err := c.Restore(nil); err != nil || c.Live() != 0 {
		t.Fatalf("Restore(nil): err=%v live=%d, want an empty set", err, c.Live())
	}
}

// TestGoldenVectors pins the bytes of the saga journal record in each
// shape it takes (an end naming only the saga, a registered step, a
// settled step) and of the coordinator snapshot: a codec change that
// moves a byte breaks recovery of journals already on disk and must show
// here.
func TestGoldenVectors(t *testing.T) {
	step := Step{ID: 2, Kind: "cancel", Data: []byte{0x0a, 0x01, 'p'}}
	for _, g := range []struct {
		name string
		rec  record
		hex  string
	}{
		{"end", record{ID: "split:RAR-1#7"}, "0a0d73706c69743a5241522d312337"},
		{"step", record{ID: "split:RAR-1#7", Step: step}, "0a0d73706c69743a5241522d3123371004" + "1a0663616e63656c" + "22030a0170"},
		{"comp", record{ID: "split:RAR-1#7", Step: Step{ID: 2, Done: true}}, "0a0d73706c69743a5241522d31233710042801"},
	} {
		got := g.rec.AppendBinary(nil)
		if hex.EncodeToString(got) != g.hex {
			t.Errorf("%s: encoded %x\n      want %s", g.name, got, g.hex)
		}
		var back record
		if err := back.DecodeBinary(got); err != nil || !reflect.DeepEqual(back, g.rec) {
			t.Errorf("%s: decoded %+v (%v), want %+v", g.name, back, err, g.rec)
		}
	}

	snaps := []Snap{
		{ID: "a", Steps: []Step{{ID: 1, Kind: "release", Data: []byte("h"), Done: true}, step}},
		{ID: "b"},
	}
	const snapHex = "0a26" + "0a0161" + "1a10" + "1002" + "1a0772656c65617365" + "220168" + "2801" +
		"1a0f" + "1004" + "1a0663616e63656c" + "22030a0170" +
		"0a03" + "0a0162"
	got := appendSnaps(nil, snaps)
	if hex.EncodeToString(got) != snapHex {
		t.Errorf("snapshot encoded %x\n            want %s", got, snapHex)
	}
	if back, err := decodeSnaps(got); err != nil || !reflect.DeepEqual(back, snaps) {
		t.Errorf("snapshot decoded %+v (%v), want %+v", back, err, snaps)
	}
	// An older snapshot's aborting flag (tag 2) is skipped.
	old, _ := hex.DecodeString("0a28" + "0a0161" + "1001" + snapHex[10:])
	if back, err := decodeSnaps(old); err != nil || !reflect.DeepEqual(back, snaps) {
		t.Errorf("snapshot with tag 2 decoded %+v (%v), want %+v", back, err, snaps)
	}
}

// FuzzSagaRecord: arbitrary bytes never panic the record or snapshot
// decoders or ApplyRecord under any op, and whatever decodes re-encodes
// to bytes that decode to the same value.
func FuzzSagaRecord(f *testing.F) {
	f.Add(record{ID: "s"}.AppendBinary(nil))
	f.Add(record{ID: "s", Step: Step{ID: 1, Kind: "cancel", Data: []byte{1, 2, 3}}}.AppendBinary(nil))
	f.Add(record{ID: "s", Step: Step{ID: 1, Done: true}}.AppendBinary(nil))
	f.Add(appendSnaps(nil, []Snap{{ID: "s", Steps: []Step{{ID: 3, Kind: "release"}}}}))
	f.Add([]byte{0x0a, 0xff})       // id length past the end
	f.Add([]byte{0x10, 0x80})       // torn step id
	f.Add([]byte(`{"id":"split"}`)) // a record from before the binary codec
	f.Fuzz(func(t *testing.T, data []byte) {
		var r record
		if err := r.DecodeBinary(data); err == nil {
			var again record
			if err := again.DecodeBinary(r.AppendBinary(nil)); err != nil || !reflect.DeepEqual(again, r) {
				t.Fatalf("record %+v re-decoded as %+v (%v)", r, again, err)
			}
		}
		if snaps, err := decodeSnaps(data); err == nil {
			again, err := decodeSnaps(appendSnaps(nil, snaps))
			if err != nil || !reflect.DeepEqual(again, snaps) {
				t.Fatalf("snapshot %+v re-decoded as %+v (%v)", snaps, again, err)
			}
		}
		c := New(Options{})
		defer c.Close()
		for _, op := range []string{OpStep, OpComp, OpStep, OpEnd, OpStep, OpComp, "saga.unknown"} {
			_ = c.ApplyRecord(journal.Record{Op: op, Data: data})
		}
		if err := c.Restore(data); err == nil {
			_ = c.Snapshot()
		}
	})
}

// TestApplyRecordRefusesUnknownOps: a saga op outside the three — the
// retired begin, commit, abort and done among them — is an error naming
// it, not a skip: replaying an old journal without its saga.commit would
// presume a committed saga aborted.
func TestApplyRecordRefusesUnknownOps(t *testing.T) {
	c := New(Options{})
	defer c.Close()
	c.Did("s1", "undo", nil)
	for _, op := range []string{"saga.begin", "saga.commit", "saga.abort", "saga.done", "saga.bogus"} {
		err := c.ApplyRecord(journal.Record{Op: op, Data: record{ID: "s1"}.AppendBinary(nil)})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", op)) {
			t.Errorf("%s: err = %v, want one naming the op", op, err)
		}
	}
	if c.Live() != 1 {
		t.Errorf("live=%d after refused records, want 1", c.Live())
	}
}

// TestRecordsReplayToLiveState: whatever a live coordinator journals
// replays to the state it holds. Random sequences of opens, further
// steps, commits and aborts run against executors that settle ("ok") or
// never do ("fail"); each abort's worker finishes before the next
// operation, so the journal order is the operation order. Two feeds must
// end with the live coordinator's snapshot bytes: every record through
// ApplyRecord into a fresh coordinator, and a snapshot cut at a random
// point, restored, then the records from up to three before the cut —
// records the snapshot already holds. Stray steps of closed sagas are
// appended along the way and must change nothing.
func TestRecordsReplayToLiveState(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	runs := 1000
	if testing.Short() {
		runs = 200
	}
	fail := errors.New("fail")
	for run := 0; run < runs; run++ {
		j := &fakeJournal{}
		live := journaled(Options{Backoff: time.Nanosecond}, j)
		live.RegisterExec("ok", func([]byte) error { return nil })
		live.RegisterExec("fail", func([]byte) error { return fail })
		kinds := []string{"ok", "ok", "ok", "fail"}
		var open, closed []string
		ops := 1 + rng.Intn(16)
		cutAt := rng.Intn(ops + 1)
		var snap []byte
		cut := -1
		for i := 0; i < ops; i++ {
			if i == cutAt {
				snap, cut = live.Snapshot(), len(j.opList())
			}
			pick := func() string {
				k := rng.Intn(len(open))
				id := open[k]
				open = append(open[:k], open[k+1:]...)
				return id
			}
			switch r := rng.Intn(10); {
			case r < 3 || len(open) == 0:
				id := fmt.Sprintf("s%d", i)
				live.Did(id, kinds[rng.Intn(len(kinds))], []byte{byte(i)})
				open = append(open, id)
			case r < 6:
				live.Did(open[rng.Intn(len(open))], kinds[rng.Intn(len(kinds))], []byte{byte(i)})
			case r < 8:
				id := pick()
				live.Commit(id)
				closed = append(closed, id)
			default:
				id := pick()
				live.Abort(id)
				live.wg.Wait()
				if live.sagas[id] == nil {
					closed = append(closed, id)
				}
			}
			if len(closed) > 0 && rng.Intn(4) == 0 {
				id := closed[rng.Intn(len(closed))]
				_ = j.Append(OpStep, record{ID: id, Step: Step{ID: 2 + rng.Intn(3), Kind: "ok"}})
			}
		}
		if cut < 0 {
			snap, cut = live.Snapshot(), len(j.opList())
		}
		want := live.Snapshot()
		live.Close()

		a := New(Options{})
		if err := j.replayInto(a); err != nil {
			t.Fatalf("run %d: feed A: %v", run, err)
		}
		b := New(Options{})
		if err := b.Restore(snap); err != nil {
			t.Fatalf("run %d: restore: %v", run, err)
		}
		from := cut - rng.Intn(min(cut, 3)+1)
		for _, frame := range j.frames[from:] {
			rec, _, err := journal.DecodeRecord(frame)
			if err == nil {
				err = b.ApplyRecord(rec)
			}
			if err != nil {
				t.Fatalf("run %d: feed B: %v", run, err)
			}
		}
		for name, got := range map[string][]byte{"every record": a.Snapshot(), "snapshot then records": b.Snapshot()} {
			if !bytes.Equal(got, want) {
				t.Fatalf("run %d: %s replayed to\n %x\nlive coordinator holds\n %x\njournal %v, cut %d, fed from %d",
					run, name, got, want, j.opList(), cut, from)
			}
		}
	}
}
