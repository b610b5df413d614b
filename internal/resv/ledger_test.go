package resv

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"e2eqos/internal/identity"
	"e2eqos/internal/journal"
	"e2eqos/internal/units"
)

// sweepTwin is the table as it stood before the ledger: the same map,
// counters, rules and error strings, with every question about the
// time axis answered by a sort-and-sweep over the whole map. It is the
// reference the ledger is held to; nothing outside the tests uses it.
type sweepTwin struct {
	name     string
	capacity units.Bandwidth
	resv     map[string]*Reservation
	seq      int64
	admits   int
	clock    func() time.Time
	// log holds every journal record the twin would have emitted,
	// encoded (see encodeEvent).
	log [][]byte
}

func newSweepTwin(name string, capacity units.Bandwidth, clock func() time.Time) *sweepTwin {
	return &sweepTwin{
		name:     name,
		capacity: capacity,
		resv:     make(map[string]*Reservation),
		clock:    clock,
	}
}

// maxCommitted computes the peak committed bandwidth during w,
// optionally ignoring one handle: an edge list over every granted
// reservation that overlaps w, sorted, releases before acquisitions at
// one instant, then one running sum.
func (m *sweepTwin) maxCommitted(w units.Window, ignore string) units.Bandwidth {
	type edge struct {
		at    time.Time
		delta units.Bandwidth
	}
	var edges []edge
	for h, r := range m.resv {
		start, end := r.Window.Start, r.Window.End
		if w.Start.After(start) {
			start = w.Start
		}
		if w.End.Before(end) {
			end = w.End
		}
		if h == ignore || r.Status != Granted || !end.After(start) {
			continue
		}
		edges = append(edges, edge{start, r.Bandwidth}, edge{end, -r.Bandwidth})
	}
	sort.Slice(edges, func(i, j int) bool {
		if !edges[i].at.Equal(edges[j].at) {
			return edges[i].at.Before(edges[j].at)
		}
		return edges[i].delta < edges[j].delta
	})
	var cur, max units.Bandwidth
	for _, e := range edges {
		cur += e.delta
		if cur > max {
			max = cur
		}
	}
	return max
}

func (m *sweepTwin) committedAt(at time.Time) units.Bandwidth {
	var sum units.Bandwidth
	for _, r := range m.resv {
		if r.Status == Granted && !at.Before(r.Window.Start) && at.Before(r.Window.End) {
			sum += r.Bandwidth
		}
	}
	return sum
}

func (m *sweepTwin) emit(t *testing.T, e event) {
	m.log = append(m.log, encodeEvent(t, e))
}

func (m *sweepTwin) admit(t *testing.T, req AdmitRequest) (*Reservation, error) {
	if req.Bandwidth <= 0 {
		return nil, fmt.Errorf("resv: non-positive bandwidth %v", req.Bandwidth)
	}
	if !req.Window.Valid() {
		return nil, fmt.Errorf("resv: invalid window %v", req.Window)
	}
	now := m.clock()
	m.admits++
	if m.admits >= sweepEvery {
		m.admits = 0
		if swept := m.compact(now); len(swept) > 0 {
			m.emit(t, compactEvent(swept))
		}
	}
	peak := m.maxCommitted(req.Window, "")
	if peak+req.Bandwidth > m.capacity {
		return nil, fmt.Errorf("resv: %s: insufficient capacity: peak committed %v + request %v > capacity %v",
			m.name, peak, req.Bandwidth, m.capacity)
	}
	m.seq++
	r := &Reservation{
		Handle:    fmt.Sprintf("%s-%d", m.name, m.seq),
		User:      req.User,
		SrcHost:   req.SrcHost,
		DstHost:   req.DstHost,
		Bandwidth: req.Bandwidth,
		Window:    req.Window,
		Status:    Granted,
		Tunnel:    req.Tunnel,
		Created:   now,
	}
	m.resv[r.Handle] = r
	m.emit(t, admitEvent(r, m.seq))
	return r, nil
}

func (m *sweepTwin) cancel(t *testing.T, handle string) error {
	r, ok := m.resv[handle]
	if !ok {
		return fmt.Errorf("resv: unknown handle %q", handle)
	}
	if r.Status == Cancelled {
		return fmt.Errorf("resv: handle %q already cancelled", handle)
	}
	r.Status = Cancelled
	r.CancelledAt = m.clock()
	m.emit(t, cancelEvent(handle, r.CancelledAt))
	return nil
}

func (m *sweepTwin) compact(now time.Time) []string {
	horizon := now.Add(-DefaultRetention)
	var removed []string
	for h, r := range m.resv {
		var deadSince time.Time
		switch {
		case r.Status == Cancelled:
			deadSince = r.CancelledAt
			if deadSince.IsZero() || r.Window.End.Before(deadSince) {
				deadSince = r.Window.End
			}
		default:
			deadSince = r.Window.End
		}
		if deadSince.Before(horizon) {
			delete(m.resv, h)
			removed = append(removed, h)
		}
	}
	return removed
}

func (m *sweepTwin) snapshot() []byte {
	s := snapshot{Name: m.name, Capacity: m.capacity, Seq: m.seq}
	for _, r := range m.resv {
		s.Reservations = append(s.Reservations, *r)
	}
	sort.Slice(s.Reservations, func(i, j int) bool {
		return s.Reservations[i].Handle < s.Reservations[j].Handle
	})
	return s.appendBinary(nil)
}

// encodeEvent is the journal's encoding of one table event. A compact
// record lists its handles in map order, which no two tables share, so
// the list is sorted first.
func encodeEvent(t *testing.T, e event) []byte {
	t.Helper()
	if c, ok := e.data.(compactRec); ok {
		sorted := append([]string(nil), c.Removed...)
		sort.Strings(sorted)
		e.data = compactRec{Removed: sorted}
	}
	b, err := journal.AppendRecord(nil, e.op, e.data)
	if err != nil {
		t.Fatalf("encode %s: %v", e.op, err)
	}
	return b
}

type breakpoint struct {
	at    time.Time
	delta units.Bandwidth
}

// audit checks the treap under n — search order, heap order, no zero
// delta, both aggregates — and appends its breakpoints to out in time
// order.
func (n *node) audit(t *testing.T, out *[]breakpoint) {
	if n == nil {
		return
	}
	if (n.left != nil && n.left.pri > n.pri) || (n.right != nil && n.right.pri > n.pri) {
		t.Fatalf("ledger: heap order broken under %v", n.at)
	}
	n.left.audit(t, out)
	if k := len(*out); k > 0 && !(*out)[k-1].at.Before(n.at) {
		t.Fatalf("ledger: %v does not follow %v", n.at, (*out)[k-1].at)
	}
	if n.delta == 0 {
		t.Fatalf("ledger: zero delta kept at %v", n.at)
	}
	*out = append(*out, breakpoint{n.at, n.delta})
	n.right.audit(t, out)
	want := *n
	want.fix()
	if want.sum != n.sum || want.peak != n.peak {
		t.Fatalf("ledger: stale aggregates at %v: sum %v peak %v, want %v %v", n.at, n.sum, n.peak, want.sum, want.peak)
	}
}

// checkLedger asserts the table's invariant: the incrementally
// maintained ledger is a well-formed treap holding exactly the
// breakpoints that booking every counted entry of the map builds.
func checkLedger(t *testing.T, tbl *Table) {
	t.Helper()
	tbl.mu.Lock()
	defer tbl.mu.Unlock()
	var rebuilt ledger
	for _, r := range tbl.resv {
		if counted(r) {
			rebuilt.book(r.Window, r.Bandwidth)
		}
	}
	var got, want []breakpoint
	tbl.led.root.audit(t, &got)
	rebuilt.root.audit(t, &want)
	if len(got) != len(want) {
		t.Fatalf("ledger holds %d breakpoints, the map implies %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].at.Equal(want[i].at) || got[i].delta != want[i].delta {
			t.Fatalf("breakpoint %d: ledger has %v %+d, the map implies %v %+d",
				i, got[i].at, got[i].delta, want[i].at, want[i].delta)
		}
	}
}

func mustSnapshot(t *testing.T, tbl *Table) []byte {
	t.Helper()
	data, err := tbl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func mustRestore(t *testing.T, data []byte) *Table {
	t.Helper()
	tbl, err := RestoreTable(data)
	if err != nil {
		t.Fatalf("RestoreTable: %v", err)
	}
	return tbl
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestLedgerMatchesSweepProperty drives a table and its sweep-only twin
// through one seeded random history that takes every write path of the
// map — Admit, Cancel, Compact and the sweep inside Admit,
// Snapshot→RestoreTable, ResetFrom, a crash recovery's replay of the
// tail, and ApplyRecord on a follower fed the table's own
// records — and after every step holds table and follower to the twin: the same verdicts and error strings,
// the same journal records, the same snapshot bytes, the same Available
// and CommittedAt on random and edge-aligned windows, and a ledger that
// equals the one rebuilt from the map. Windows touch end to start,
// share instants, lie wholly in the past and sit in years UnixNano
// cannot express.
func TestLedgerMatchesSweepProperty(t *testing.T) {
	steps := 10000
	if testing.Short() {
		steps = 1500
	}
	rng := rand.New(rand.NewSource(20010807))
	clk := &fakeClock{now: t0}
	const name = "net-led"
	capacity := 300 * units.Mbps
	twin := newSweepTwin(name, capacity, clk.Now)

	var (
		sutLog  [][]byte         // records the table emitted this step
		pending []journal.Record // emitted, not yet applied to the follower
		tail    []journal.Record // emitted since base was taken
	)
	hook := func(op string, data journal.BinaryRecord) {
		b := encodeEvent(t, event{op, data})
		rec, _, err := journal.DecodeRecord(b)
		if err != nil {
			t.Fatalf("decode %s: %v", op, err)
		}
		sutLog = append(sutLog, b)
		pending = append(pending, rec)
		tail = append(tail, rec)
	}
	adopt := func(tbl *Table) *Table {
		tbl.SetClock(clk.Now)
		tbl.setEmit(hook)
		twin.admits = 0 // a table that was just built has not admitted yet
		return tbl
	}
	fresh, err := NewTable(name, capacity)
	if err != nil {
		t.Fatal(err)
	}
	sut := adopt(fresh)
	base := mustSnapshot(t, sut)
	fol := mustRestore(t, base)

	var handles []string
	epochs := []time.Time{
		time.Date(1200, 2, 29, 0, 0, 0, 0, time.UTC),
		time.Date(2500, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9000, 12, 31, 23, 0, 0, 0, time.UTC),
	}
	// boundary returns an instant at, or one nanosecond beside, an edge
	// of a reservation the twin still holds.
	boundary := func() (time.Time, bool) {
		for len(handles) > 0 {
			i := rng.Intn(len(handles))
			r, ok := twin.resv[handles[i]]
			if !ok { // compacted: forget it
				handles[i] = handles[len(handles)-1]
				handles = handles[:len(handles)-1]
				continue
			}
			at := r.Window.Start
			if rng.Intn(2) == 0 {
				at = r.Window.End
			}
			return at.Add(time.Duration(rng.Intn(3)-1) * time.Nanosecond), true
		}
		return time.Time{}, false
	}
	instant := func(aligned bool) time.Time {
		now := clk.Now()
		k := rng.Intn(100)
		if aligned || k < 30 {
			if at, ok := boundary(); ok {
				return at
			}
		}
		switch {
		case k < 83: // a coarse grid around the clock, so instants are shared
			return now.Truncate(time.Minute).Add(time.Duration(rng.Intn(50)-15) * time.Minute)
		case k < 92: // long dead
			return now.Add(-time.Hour - time.Duration(rng.Intn(600))*time.Second)
		default:
			return epochs[rng.Intn(len(epochs))].Add(time.Duration(rng.Intn(4)) * time.Minute)
		}
	}
	window := func(aligned bool) units.Window {
		a, b := instant(aligned), instant(aligned)
		if b.Before(a) {
			a, b = b, a
		}
		if a.Equal(b) {
			b = a.Add(time.Nanosecond)
		}
		return units.Window{Start: a, End: b}
	}
	pick := func() string {
		if len(handles) == 0 || rng.Intn(20) == 0 {
			return "no-such-handle"
		}
		return handles[rng.Intn(len(handles))]
	}
	// agree holds one table to the twin.
	agree := func(step int, who string, tbl *Table, want []byte, queries []units.Window, peaks, levels []units.Bandwidth) {
		t.Helper()
		if got := mustSnapshot(t, tbl); !bytes.Equal(got, want) {
			t.Fatalf("step %d: %s snapshot differs from the sweep twin's\n want: %x\n  got: %x", step, who, want, got)
		}
		checkLedger(t, tbl)
		for i, w := range queries {
			if got, want := tbl.Available(w), capacity-peaks[i]; got != want {
				t.Fatalf("step %d: %s Available(%v) = %v, sweep says %v", step, who, w, got, want)
			}
			if got := tbl.CommittedAt(w.Start); got != levels[i] {
				t.Fatalf("step %d: %s CommittedAt(%v) = %v, scan says %v", step, who, w.Start, got, levels[i])
			}
		}
	}

	var granted, refused, most int
	for step := 0; step < steps; step++ {
		switch k := rng.Intn(90); {
		case k < 46:
			req := AdmitRequest{
				User:      identity.DN(fmt.Sprintf("/O=Grid/CN=user%d", rng.Intn(5))),
				SrcHost:   "a.example",
				DstHost:   "b.example",
				Bandwidth: units.Bandwidth(1+rng.Intn(25)) * units.Mbps,
				Window:    window(rng.Intn(3) == 0),
				Tunnel:    rng.Intn(8) == 0,
			}
			switch rng.Intn(50) {
			case 0:
				req.Bandwidth = 0
			case 1:
				req.Window.End = req.Window.Start
			}
			r1, err1 := twin.admit(t, req)
			r2, err2 := sut.Admit(req)
			if errText(err1) != errText(err2) {
				t.Fatalf("step %d: admit verdicts differ:\n sweep:  %v\n ledger: %v", step, err1, err2)
			}
			if err1 != nil {
				refused++
				break
			}
			granted++
			if *r1 != *r2 {
				t.Fatalf("step %d: admitted %+v, sweep twin admitted %+v", step, *r2, *r1)
			}
			handles = append(handles, r1.Handle)
		case k < 58:
			h := pick()
			if err1, err2 := twin.cancel(t, h), sut.Cancel(h); errText(err1) != errText(err2) {
				t.Fatalf("step %d: cancel(%s) differs:\n sweep:  %v\n ledger: %v", step, h, err1, err2)
			}
		case k < 63:
			now := clk.Now()
			removed := twin.compact(now)
			if len(removed) > 0 {
				twin.emit(t, compactEvent(removed))
			}
			if n := sut.Compact(now); n != len(removed) {
				t.Fatalf("step %d: compact removed %d, sweep twin %d", step, n, len(removed))
			}
		case k < 70:
			clk.Set(clk.Now().Add(time.Duration(rng.Intn(360)) * time.Second))
		case k < 77: // restart from a snapshot
			sut = adopt(mustRestore(t, mustSnapshot(t, sut)))
		case k < 81: // a snapshot installed in place, on either side
			if rng.Intn(2) == 0 {
				if err := sut.ResetFrom(twin.snapshot()); err != nil {
					t.Fatalf("step %d: ResetFrom: %v", step, err)
				}
				twin.admits = 0
			} else {
				if err := fol.ResetFrom(mustSnapshot(t, sut)); err != nil {
					t.Fatalf("step %d: follower ResetFrom: %v", step, err)
				}
			}
		case k < 85: // crash recovery: the last base snapshot plus the tail since
			recovered := mustRestore(t, base)
			replayAll(t, recovered, tail)
			sut = adopt(recovered)
			base, tail = mustSnapshot(t, sut), nil
		case k < 88: // failover: the follower takes over and gets a follower of its own
			sut = adopt(fol)
			base, tail = mustSnapshot(t, sut), nil
			fol = mustRestore(t, base)
		default: // a long quiet spell: everything near the clock dies
			clk.Set(clk.Now().Add(time.Duration(1+rng.Intn(3)) * time.Hour))
		}

		if len(sutLog) != len(twin.log) {
			t.Fatalf("step %d: table emitted %d records, sweep twin %d", step, len(sutLog), len(twin.log))
		}
		for i := range sutLog {
			if !bytes.Equal(sutLog[i], twin.log[i]) {
				t.Fatalf("step %d: journal record %d differs\n want: %x\n  got: %x", step, i, twin.log[i], sutLog[i])
			}
		}
		sutLog, twin.log = sutLog[:0], twin.log[:0]
		for _, rec := range pending {
			if err := fol.ApplyRecord(rec); err != nil {
				t.Fatalf("step %d: ApplyRecord(%s): %v", step, rec.Op, err)
			}
		}
		pending = pending[:0]

		queries := []units.Window{window(false), window(false), window(true), window(true)}
		peaks := make([]units.Bandwidth, len(queries))
		levels := make([]units.Bandwidth, len(queries))
		for i, w := range queries {
			peaks[i], levels[i] = twin.maxCommitted(w, ""), twin.committedAt(w.Start)
		}
		want := twin.snapshot()
		agree(step, "table", sut, want, queries, peaks, levels)
		agree(step, "follower", fol, want, queries, peaks, levels)
		most = max(most, len(twin.resv))
	}
	if granted < steps/10 || refused < steps/50 {
		t.Fatalf("history too one-sided to mean much: %d granted, %d refused", granted, refused)
	}
	t.Logf("%d steps: %d granted, %d refused, at most %d entries held", steps, granted, refused, most)
}

// TestLedgerIgnoresDamagedWindows pins what a granted entry with an
// ill-formed window — which only a damaged admit record can bring in —
// means to the time axis: nothing, as under the sweep, and it can still
// be cancelled and compacted without unbalancing the ledger.
func TestLedgerIgnoresDamagedWindows(t *testing.T) {
	tab := newTable(t, 100*units.Mbps)
	tab.SetClock((&fakeClock{now: t0}).Now)
	if _, err := tab.Admit(AdmitRequest{Bandwidth: 30 * units.Mbps, Window: win(0, 60)}); err != nil {
		t.Fatal(err)
	}
	bad := Reservation{
		Handle: "test-9", Bandwidth: 50 * units.Mbps, Status: Granted,
		Window: units.Window{Start: t0.Add(40 * time.Minute), End: t0.Add(20 * time.Minute)},
	}
	b, err := journal.AppendRecord(nil, opAdmit, admitRec{Resv: bad, Seq: 9})
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := journal.DecodeRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	replayAll(t, tab, []journal.Record{rec})
	checkLedger(t, tab)
	if got := tab.Available(win(0, 60)); got != 70*units.Mbps {
		t.Errorf("Available = %v, want 70Mb/s: the damaged entry counted", got)
	}
	if got := tab.CommittedAt(t0.Add(30 * time.Minute)); got != 30*units.Mbps {
		t.Errorf("CommittedAt = %v, want 30Mb/s", got)
	}
	if got := tab.Available(bad.Window); got != 100*units.Mbps {
		t.Errorf("Available over an ill-formed window = %v, want the whole capacity", got)
	}
	if err := tab.Cancel(bad.Handle); err != nil {
		t.Errorf("Cancel: %v", err)
	}
	checkLedger(t, tab)
	if n := tab.Compact(t0.Add(24 * time.Hour)); n != 2 {
		t.Errorf("Compact removed %d, want 2", n)
	}
	checkLedger(t, tab)
}

// booked returns a table holding n live, mutually overlapping
// reservations with staggered edges: every one of them covers
// [t0+n s, t0+1h).
func booked(t testing.TB, n int) *Table {
	t.Helper()
	tab, err := NewTable("booked", units.Bandwidth(4*n)*units.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	tab.SetClock((&fakeClock{now: t0}).Now)
	for i := 0; i < n; i++ {
		w := units.Window{Start: t0.Add(time.Duration(i) * time.Second), End: t0.Add(time.Hour + time.Duration(i)*time.Second)}
		if _, err := tab.Admit(AdmitRequest{Bandwidth: units.Mbps, Window: w}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// TestSnapshotRestoreValidatesInOneWalk covers the restore path at
// size: a 2000-entry snapshot is validated by one walk of the rebuilt
// ledger (the sweep per entry it replaces took seconds), and a snapshot
// that overcommits anywhere is still refused, with the instant named.
func TestSnapshotRestoreValidatesInOneWalk(t *testing.T) {
	tab := booked(t, 2000)
	data := mustSnapshot(t, tab)
	start := time.Now()
	restored := mustRestore(t, data)
	took := time.Since(start)
	t.Logf("restored %d entries in %v", restored.Len(), took)
	if took > time.Second {
		t.Errorf("restoring 2000 entries took %v", took)
	}
	checkLedger(t, restored)
	if !bytes.Equal(mustSnapshot(t, restored), data) {
		t.Error("restore round trip changed the snapshot")
	}

	// The same reservations under a capacity one short of their peak:
	// all 2000 overlap from the last start on.
	var s snapshot
	if err := s.decodeBinary(data); err != nil {
		t.Fatal(err)
	}
	s.Capacity = 2000*units.Mbps - 1
	_, err := RestoreTable(s.appendBinary(nil))
	if err == nil {
		t.Fatal("overcommitting snapshot restored")
	}
	at := t0.Add(1999 * time.Second).Format(time.RFC3339Nano)
	if want := "snapshot overcommits 2Gb/s > "; !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), at) {
		t.Errorf("refusal %q names neither %q nor the instant %s", err, want, at)
	}
	s.Capacity = 2000 * units.Mbps
	if _, err := RestoreTable(s.appendBinary(nil)); err != nil {
		t.Errorf("snapshot exactly at capacity refused: %v", err)
	}
}

// TestSnapshotResetWhileReading is the follower's race: ResetFrom
// rewrites name and capacity under the lock while gauges and handlers
// read them. Meaningful under -race.
func TestSnapshotResetWhileReading(t *testing.T) {
	tab := newTable(t, 100*units.Mbps)
	other, err := NewTable("other", 200*units.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Admit(AdmitRequest{Bandwidth: units.Mbps, Window: win(0, 10)}); err != nil {
		t.Fatal(err)
	}
	snaps := [][]byte{mustSnapshot(t, tab), mustSnapshot(t, other)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if err := tab.ResetFrom(snaps[i%2]); err != nil {
				t.Errorf("ResetFrom: %v", err)
				return
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		name, capacity := tab.Name(), tab.Available(win(1_000_000, 10)) // nothing booked that late
		if (name != "test" && name != "other") || (capacity != 100*units.Mbps && capacity != 200*units.Mbps) {
			t.Fatalf("read %q / %v mid-reset", name, capacity)
		}
		tab.Available(win(0, 10))
		tab.CommittedAt(t0)
	}
}

// TestLedgerAllocationFree is the allocation gate for the admission
// path at size: reading the time axis allocates nothing, and an
// admit+cancel pair allocates what the Reservation and its handle cost
// and no more — the ledger's four nodes come off its free list.
func TestLedgerAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	tab := booked(t, 2000)
	w := units.Window{Start: t0.Add(10 * time.Minute), End: t0.Add(50 * time.Minute)}
	at := t0.Add(30 * time.Minute)
	if n := testing.AllocsPerRun(200, func() { tab.Available(w) }); n != 0 {
		t.Errorf("Available allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(200, func() { tab.CommittedAt(at) }); n != 0 {
		t.Errorf("CommittedAt allocates %v times per call", n)
	}
	// Off the second grid of the standing entries, so each pair links
	// and unlinks two ledger nodes.
	req := AdmitRequest{Bandwidth: units.Mbps, Window: units.Window{Start: w.Start.Add(time.Millisecond), End: w.End.Add(time.Millisecond)}}
	pair := func() {
		r, err := tab.Admit(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Cancel(r.Handle); err != nil {
			t.Fatal(err)
		}
	}
	// The Reservation, its handle, and Sprintf boxing the name and the
	// sequence number: what the pair cost on an empty table before.
	const admitCancelAllocs = 4
	if n := testing.AllocsPerRun(500, pair); n > admitCancelAllocs {
		t.Errorf("admit+cancel allocates %v times per pair, budget %d", n, admitCancelAllocs)
	}
}
