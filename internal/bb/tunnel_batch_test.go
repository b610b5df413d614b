package bb_test

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"e2eqos/internal/bb"
	"e2eqos/internal/experiment"
	"e2eqos/internal/identity"
	"e2eqos/internal/signalling"
	"e2eqos/internal/transport"
	"e2eqos/internal/tunnel"
	"e2eqos/internal/units"
)

// buildTunnelWorld establishes a tunnel over a fresh world and returns
// the world, the user and the tunnel spec.
func buildTunnelWorld(t *testing.T, domains int, aggregate units.Bandwidth) (*experiment.World, *experiment.User, string) {
	t.Helper()
	return buildTunnelWorldWith(t, experiment.WorldConfig{NumDomains: domains, CallTimeout: 2 * time.Second}, aggregate)
}

// buildTunnelWorldWith is buildTunnelWorld over a world of the caller's
// configuration (capacity and metrics are filled in).
func buildTunnelWorldWith(t *testing.T, cfg experiment.WorldConfig, aggregate units.Bandwidth) (*experiment.World, *experiment.User, string) {
	t.Helper()
	cfg.Capacity, cfg.EnableObs = 1000*units.Mbps, true
	w, err := experiment.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	spec := u.NewSpec(experiment.SpecOptions{
		DestDomain: w.DestDomain(), Bandwidth: aggregate, Tunnel: true,
	})
	if res, err := u.ReserveE2E(spec); err != nil || !res.Granted {
		t.Fatalf("tunnel establishment: res=%+v err=%v", res, err)
	}
	return w, u, spec.RARID
}

// wantTunnelCounters checks a broker's three per-op tunnel counters.
func wantTunnelCounters(t *testing.T, w *experiment.World, domain string, allocs, releases, denied float64) {
	t.Helper()
	snap := w.BBs[domain].MetricsRegistry().Snapshot()
	got := [3]float64{snap["bb_tunnel_allocs_total"], snap["bb_tunnel_releases_total"], snap["bb_tunnel_ops_denied_total"]}
	if got != [3]float64{allocs, releases, denied} {
		t.Errorf("%s: tunnel allocs/releases/denied counters = %v, want [%v %v %v]", domain, got, allocs, releases, denied)
	}
}

// TestTunnelBatchPartialDenial: one over-capacity op inside a batch is
// denied at both ends while the others land, and the two endpoints
// agree on the allocated total afterwards.
func TestTunnelBatchPartialDenial(t *testing.T) {
	w, u, rarID := buildTunnelWorld(t, 2, 100*units.Mbps)
	src, dest := w.SourceDomain(), w.DestDomain()
	results, err := w.BBs[src].TunnelBatch(rarID, []signalling.TunnelOp{
		{Action: signalling.OpAlloc, SubFlowID: "f1", Bandwidth: int64(40 * units.Mbps)},
		{Action: signalling.OpAlloc, SubFlowID: "f2", Bandwidth: int64(40 * units.Mbps)},
		{Action: signalling.OpAlloc, SubFlowID: "f3", Bandwidth: int64(40 * units.Mbps)},
	}, u.DN())
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Granted || !results[1].Granted {
		t.Fatalf("in-capacity ops denied: %+v", results)
	}
	if results[2].Granted {
		t.Fatalf("over-capacity op granted: %+v", results[2])
	}
	for _, d := range []string{src, dest} {
		ep, ok := w.BBs[d].Tunnel(rarID)
		if !ok {
			t.Fatalf("%s: tunnel missing", d)
		}
		if ep.Used() != 80*units.Mbps || ep.Len() != 2 {
			t.Errorf("%s: used=%v len=%d, want 80Mb/s over 2 sub-flows", d, ep.Used(), ep.Len())
		}
	}
	// The source refused f3 itself, so it never travelled.
	wantTunnelCounters(t, w, src, 2, 0, 1)
	wantTunnelCounters(t, w, dest, 2, 0, 0)
}

// TestBatchEntriesGaugeFollowsItsTunnel: bb_tunnel_batch_entries reads
// the replay caches of the tunnel registrations. A granted batch leaves
// one entry at the end that answers retransmissions; the tunnel's cancel
// takes it away with the registration.
func TestBatchEntriesGaugeFollowsItsTunnel(t *testing.T) {
	w, u, rarID := buildTunnelWorld(t, 2, 100*units.Mbps)
	dest := w.DestDomain()
	entries := func() float64 { return w.BBs[dest].MetricsRegistry().Snapshot()["bb_tunnel_batch_entries"] }
	if n := entries(); n != 0 {
		t.Fatalf("bb_tunnel_batch_entries = %v on a fresh tunnel, want 0", n)
	}
	if err := w.BBs[w.SourceDomain()].AllocateTunnelFlow(rarID, "f1", units.Mbps, u.DN()); err != nil {
		t.Fatal(err)
	}
	if n := entries(); n != 1 {
		t.Errorf("bb_tunnel_batch_entries = %v after a granted batch, want 1", n)
	}
	if err := u.Cancel(u.Domain, rarID); err != nil {
		t.Fatal(err)
	}
	if _, live := w.BBs[dest].Tunnel(rarID); live {
		t.Fatal("the tunnel outlived its cancel")
	}
	if n := entries(); n != 0 {
		t.Errorf("bb_tunnel_batch_entries = %v after the tunnel's cancel, want 0", n)
	}
}

// TestNeverRenewedTunnelHoldsTwoBatchEntries: a batch's replay entry
// lives until its sender acknowledges it, so a tunnel that is never
// renewed holds a bounded cache however many batches cross it. Each
// closed-loop batch through BB.TunnelBatch acknowledges the ones before
// it; while the cache lived as long as its tunnel, the destination held
// one entry per batch, 10⁴ here.
func TestNeverRenewedTunnelHoldsTwoBatchEntries(t *testing.T) {
	w, u, rarID := buildTunnelWorld(t, 2, 100*units.Mbps)
	src, dst := w.BBs[w.SourceDomain()], w.BBs[w.DestDomain()]
	const batches = 10_000
	for i := 0; i < batches/2; i++ {
		if err := src.AllocateTunnelFlow(rarID, "f", units.Mbps, u.DN()); err != nil {
			t.Fatalf("batch %d: %v", 2*i, err)
		}
		if err := src.ReleaseTunnelFlow(rarID, "f"); err != nil {
			t.Fatalf("batch %d: %v", 2*i+1, err)
		}
	}
	snap := dst.MetricsRegistry().Snapshot()
	if n := snap["bb_tunnel_batches_total"]; n != batches {
		t.Fatalf("bb_tunnel_batches_total = %v at the destination, want %d", n, batches)
	}
	if n := snap["bb_tunnel_batch_entries"]; n > 2 {
		t.Errorf("bb_tunnel_batch_entries = %v after %d closed-loop batches, want at most 2", n, batches)
	}
}

// TestConcurrentSourceBatchesNeverGoStale: batches that one source sends
// on one tunnel at once reach the destination in any order, and each
// acknowledges only what is below the lowest Seq still in flight, so
// none is ever refused as stale (fewer batches run than the cap, which
// is what a slow one may be overtaken by). Once they have settled, the
// next batch acknowledges every one of them.
func TestConcurrentSourceBatchesNeverGoStale(t *testing.T) {
	w, u, rarID := buildTunnelWorld(t, 2, 100*units.Mbps)
	src, dst := w.BBs[w.SourceDomain()], w.BBs[w.DestDomain()]
	const workers, rounds = 4, 100
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			var err error
			for r := 0; r < rounds && err == nil; r++ {
				id := fmt.Sprintf("w%d-%d", g, r)
				if err = src.AllocateTunnelFlow(rarID, id, units.Mbps, u.DN()); err == nil {
					err = src.ReleaseTunnelFlow(rarID, id)
				}
			}
			errs <- err
		}(g)
	}
	for g := 0; g < workers; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	snap := dst.MetricsRegistry().Snapshot()
	if snap["bb_tunnel_batches_stale_total"] != 0 || snap["bb_tunnel_batches_total"] != 2*workers*rounds {
		t.Errorf("destination: %v batches applied, %v stale, want %d and 0",
			snap["bb_tunnel_batches_total"], snap["bb_tunnel_batches_stale_total"], 2*workers*rounds)
	}
	if err := src.AllocateTunnelFlow(rarID, "last", units.Mbps, u.DN()); err != nil {
		t.Fatal(err)
	}
	if n := dst.MetricsRegistry().Snapshot()["bb_tunnel_batch_entries"]; n != 1 {
		t.Errorf("bb_tunnel_batch_entries = %v after one batch on a quiet tunnel, want 1", n)
	}
	if err := src.ReleaseTunnelFlow(rarID, "last"); err != nil {
		t.Fatal(err)
	}
	for _, b := range []*bb.BB{src, dst} {
		if ep, _ := b.Tunnel(rarID); ep.Len() != 0 {
			t.Errorf("%s holds %v after every sub-flow was released", b.DN(), ep.SubFlows())
		}
	}
}

// sendBatch sends a batch straight to one end as the tunnel's owner and
// returns the answer.
func sendBatch(t *testing.T, u *experiment.User, domain string, p *signalling.TunnelBatchPayload) *signalling.ResultPayload {
	t.Helper()
	res, err := u.TunnelBatch(domain, p)
	if err != nil {
		t.Fatalf("batch %d: %v", p.Seq, err)
	}
	return res
}

// TestAcknowledgedBatchIsStale: a retransmission of a batch still in
// flight (its Seq above the sender's low-water) replays the recorded
// outcome; once the sender has acknowledged it, a verbatim copy is
// refused as stale and applies nothing, as are a batch without a Seq and
// one that reuses a held Seq for other ops. Each sender numbers its own
// batches: the owner's Seq 1 is fresh however far the source broker's
// low-water has risen.
func TestAcknowledgedBatchIsStale(t *testing.T) {
	w, u, rarID := buildTunnelWorld(t, 2, 100*units.Mbps)
	src, dst := w.BBs[w.SourceDomain()], w.BBs[w.DestDomain()]
	for i := 0; i < 3; i++ {
		if err := src.AllocateTunnelFlow(rarID, fmt.Sprintf("src-%d", i), 10*units.Mbps, u.DN()); err != nil {
			t.Fatal(err)
		}
	}
	// The source's Seqs come off its epoch counter: its last batch bore
	// the counter's value and acknowledged everything below it.
	if low, want := dst.LowWater(rarID, src.DN()), src.Epoch()-1; low != want {
		t.Fatalf("the source's low-water at the destination is %d after its three batches, want %d", low, want)
	}
	ep, _ := dst.Tunnel(rarID)
	alloc := func(id string) []signalling.TunnelOp {
		return []signalling.TunnelOp{{Action: signalling.OpAlloc, SubFlowID: id, Bandwidth: int64(10 * units.Mbps)}}
	}
	first := &signalling.TunnelBatchPayload{TunnelRARID: rarID, Seq: 1, User: u.DN(), Ops: alloc("f1")}
	if res := sendBatch(t, u, w.DestDomain(), first); !res.Granted {
		t.Fatalf("first batch: %+v", res)
	}
	second := &signalling.TunnelBatchPayload{TunnelRARID: rarID, Seq: 2, Acked: 1, User: u.DN(), Ops: alloc("f2")}
	res := sendBatch(t, u, w.DestDomain(), second)
	if !res.Granted {
		t.Fatalf("second batch: %+v", res)
	}
	if again := sendBatch(t, u, w.DestDomain(), second); !reflect.DeepEqual(again, res) {
		t.Errorf("in-flight retransmission answered %+v, want the recorded %+v", again, res)
	}
	stale := sendBatch(t, u, w.DestDomain(), first)
	if stale.Granted || !strings.Contains(stale.Reason, "stale batch") {
		t.Errorf("acknowledged batch re-sent: %+v, want a stale batch refusal", stale)
	}
	// Neither a batch without a Seq, nor one acknowledging its own Seq,
	// nor one that reuses a held Seq for other ops is applied, and none
	// is a retransmission. The first two are malformed, not stale, and
	// leave the stale count alone: the second would raise the low-water
	// past the batch held under it, a window no record restores.
	unnumbered := &signalling.TunnelBatchPayload{TunnelRARID: rarID, User: u.DN(), Ops: alloc("f0")}
	if res := sendBatch(t, u, w.DestDomain(), unnumbered); res.Granted || !strings.Contains(res.Reason, "batch without seq") {
		t.Errorf("batch without a seq: %+v, want it refused by name", res)
	}
	selfAcked := &signalling.TunnelBatchPayload{TunnelRARID: rarID, Seq: 5, Acked: 5, User: u.DN(), Ops: alloc("f4")}
	if res := sendBatch(t, u, w.DestDomain(), selfAcked); res.Granted || !strings.Contains(res.Reason, "batch 5 acknowledges 5, not below itself") {
		t.Errorf("batch acknowledging its own seq: %+v, want it refused by name", res)
	}
	if n := dst.MetricsRegistry().Snapshot()["bb_tunnel_batches_stale_total"]; n != 1 {
		t.Errorf("bb_tunnel_batches_stale_total = %v after one stale batch, want 1", n)
	}
	reused := &signalling.TunnelBatchPayload{TunnelRARID: rarID, Seq: 2, Acked: 1, User: u.DN(), Ops: alloc("f3")}
	if res := sendBatch(t, u, w.DestDomain(), reused); res.Granted || !strings.Contains(res.Reason, "seq reused") {
		t.Errorf("held seq sent with other ops: %+v, want a seq reused refusal", res)
	}
	if got := fmt.Sprint(ep.Used(), ep.Len()); got != fmt.Sprint(50*units.Mbps, 5) {
		t.Errorf("destination holds %s after the retransmissions, want 50Mb/s over 5", got)
	}
	snap := dst.MetricsRegistry().Snapshot()
	for name, want := range map[string]float64{
		"bb_tunnel_batches_stale_total": 2, "bb_tunnel_batch_replays_total": 1,
		"bb_tunnel_batches_total": 5, "bb_tunnel_batch_entries": 2,
	} {
		if snap[name] != want {
			t.Errorf("%s = %v, want %v", name, snap[name], want)
		}
	}
	var owner []int64
	for _, e := range dst.ReplayEntries() {
		if e.Sender == u.DN() {
			owner = append(owner, e.Seq)
		}
	}
	if fmt.Sprint(owner) != "[2]" || dst.LowWater(rarID, u.DN()) != 1 {
		t.Errorf("the owner's replay entries are %v at low-water %d, want [2] above 1", owner, dst.LowWater(rarID, u.DN()))
	}
}

// TestSilentSenderStaysAtTheCap: a sender that never acknowledges (the
// owner's one-shot qosctl) holds at most bb.MaxHeldBatches entries; each
// batch past the cap retires the oldest and raises the low-water past
// it.
func TestSilentSenderStaysAtTheCap(t *testing.T) {
	w, u, rarID := buildTunnelWorld(t, 2, 100*units.Mbps)
	dst := w.BBs[w.DestDomain()]
	const extra = 10
	batch := func(seq int64) *signalling.TunnelBatchPayload {
		return &signalling.TunnelBatchPayload{TunnelRARID: rarID, Seq: seq, User: u.DN(), Ops: []signalling.TunnelOp{
			{Action: signalling.OpAlloc, SubFlowID: fmt.Sprintf("f%d", seq), Bandwidth: int64(units.Kbps)},
		}}
	}
	for seq := int64(1); seq <= bb.MaxHeldBatches+extra; seq++ {
		if res := sendBatch(t, u, w.DestDomain(), batch(seq)); !res.Granted {
			t.Fatalf("batch %d: %+v", seq, res)
		}
	}
	if n := dst.MetricsRegistry().Snapshot()["bb_tunnel_batch_entries"]; n != bb.MaxHeldBatches {
		t.Errorf("bb_tunnel_batch_entries = %v, want the cap %d", n, bb.MaxHeldBatches)
	}
	if low := dst.LowWater(rarID, u.DN()); low != extra {
		t.Errorf("low-water %d, want %d", low, extra)
	}
	if res := sendBatch(t, u, w.DestDomain(), batch(extra)); !strings.Contains(res.Reason, "stale batch") {
		t.Errorf("a batch the cap retired, re-sent: %+v, want a stale batch refusal", res)
	}
	if res := sendBatch(t, u, w.DestDomain(), batch(extra+1)); !res.Granted {
		t.Errorf("the oldest batch held, re-sent: %+v, want its recorded grant", res)
	}
	if ep, _ := dst.Tunnel(rarID); ep.Len() != bb.MaxHeldBatches+extra {
		t.Errorf("destination holds %d sub-flows, want %d", ep.Len(), bb.MaxHeldBatches+extra)
	}
}

// TestAcknowledgingSenderIsNotCapped: a batch whose response was lost is
// overtaken by more than bb.MaxHeldBatches later batches of its sender,
// which acknowledge only what is below it. Its retransmission still
// replays the recorded outcome: the cap binds only a sender that never
// acknowledges. (Capped, the entry was retired and the retransmission
// refused as stale, and the source undid a batch the destination kept.)
func TestAcknowledgingSenderIsNotCapped(t *testing.T) {
	w, u, rarID := buildTunnelWorld(t, 2, 100*units.Mbps)
	dst := w.BBs[w.DestDomain()]
	batch := func(seq int64) *signalling.TunnelBatchPayload {
		return &signalling.TunnelBatchPayload{TunnelRARID: rarID, Seq: seq, Acked: 1, User: u.DN(), Ops: []signalling.TunnelOp{
			{Action: signalling.OpAlloc, SubFlowID: fmt.Sprintf("f%d", seq), Bandwidth: int64(units.Kbps)},
		}}
	}
	const last = bb.MaxHeldBatches + 10
	for seq := int64(2); seq <= last; seq++ {
		if res := sendBatch(t, u, w.DestDomain(), batch(seq)); !res.Granted {
			t.Fatalf("batch %d: %+v", seq, res)
		}
	}
	if res := sendBatch(t, u, w.DestDomain(), batch(2)); !res.Granted {
		t.Errorf("the overtaken batch, retransmitted: %+v, want its recorded grant", res)
	}
	snap := dst.MetricsRegistry().Snapshot()
	if snap["bb_tunnel_batch_replays_total"] != 1 || snap["bb_tunnel_batches_stale_total"] != 0 {
		t.Errorf("%v replays, %v stale, want 1 and 0", snap["bb_tunnel_batch_replays_total"], snap["bb_tunnel_batches_stale_total"])
	}
	if n := snap["bb_tunnel_batch_entries"]; n != last-1 {
		t.Errorf("bb_tunnel_batch_entries = %v, want every batch above the low-water, %d", n, last-1)
	}
}

// TestTunnelBatchRollsBackLocalHalves: when the destination refuses an
// op the source already applied, the source's local half is undone —
// a denied alloc is released, a denied release is re-admitted with its
// original bandwidth.
func TestTunnelBatchRollsBackLocalHalves(t *testing.T) {
	w, u, rarID := desyncedTunnelWorld(t)
	src, dest := w.SourceDomain(), w.DestDomain()
	srcEP, _ := w.BBs[src].Tunnel(rarID)

	// Alloc of "ghost": the source admits it, the destination refuses
	// the duplicate, the source must roll back.
	results, err := w.BBs[src].TunnelBatch(rarID, []signalling.TunnelOp{
		{Action: signalling.OpAlloc, SubFlowID: "ghost", Bandwidth: int64(10 * units.Mbps)},
	}, u.DN())
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Granted {
		t.Fatalf("alloc of destination-held sub-flow granted: %+v", results[0])
	}
	if _, ok := srcEP.Lookup("ghost"); ok {
		t.Error("source kept its half of a remotely-denied alloc")
	}

	// Release of "lonely": the source frees it, the destination does
	// not know it, the source must re-admit it at the original size.
	results, err = w.BBs[src].TunnelBatch(rarID, []signalling.TunnelOp{
		{Action: signalling.OpRelease, SubFlowID: "lonely"},
	}, u.DN())
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Granted {
		t.Fatalf("release unknown to the destination granted: %+v", results[0])
	}
	if bw, ok := srcEP.Lookup("lonely"); !ok || bw != 20*units.Mbps {
		t.Errorf("source half of remotely-denied release not restored: bw=%v ok=%t", bw, ok)
	}
	// Source: lonely admitted, two remote denials rolled back.
	// Destination: ghost and lonely admitted, lonely released, the
	// duplicate alloc and the unknown release denied.
	wantTunnelCounters(t, w, src, 1, 0, 2)
	wantTunnelCounters(t, w, dest, 2, 1, 2)
}

// desyncedTunnelWorld is a 100 Mb/s tunnel whose ends disagree on
// purpose: "ghost" (10 Mb/s) is known to the destination only and
// "lonely" (20 Mb/s) to the source only.
func desyncedTunnelWorld(t *testing.T) (*experiment.World, *experiment.User, string) {
	t.Helper()
	w, u, rarID := buildTunnelWorld(t, 2, 100*units.Mbps)
	desyncTunnel(t, w, u, rarID)
	return w, u, rarID
}

// desyncTunnel makes the ends of a tunnel disagree as
// desyncedTunnelWorld describes.
func desyncTunnel(t *testing.T, w *experiment.World, u *experiment.User, rarID string) {
	t.Helper()
	direct := func(op signalling.TunnelOp) {
		t.Helper()
		if res, err := u.TunnelBatch(w.DestDomain(), &signalling.TunnelBatchPayload{
			TunnelRARID: rarID, Seq: testSeq.Add(1), User: u.DN(), Ops: []signalling.TunnelOp{op},
		}); err != nil || !res.Granted {
			t.Fatalf("direct %s of %s at the destination: res=%+v err=%v", op.Action, op.SubFlowID, res, err)
		}
	}
	direct(signalling.TunnelOp{Action: signalling.OpAlloc, SubFlowID: "ghost", Bandwidth: int64(10 * units.Mbps)})
	if results, err := w.BBs[w.SourceDomain()].TunnelBatch(rarID, []signalling.TunnelOp{
		{Action: signalling.OpAlloc, SubFlowID: "lonely", Bandwidth: int64(20 * units.Mbps)},
	}, u.DN()); err != nil || !results[0].Granted {
		t.Fatalf("allocating lonely: results=%+v err=%v", results, err)
	}
	direct(signalling.TunnelOp{Action: signalling.OpRelease, SubFlowID: "lonely"})
}

// mixedBatch has a denial of every kind between two grants: refused by
// the source (so the ops after it travel at a smaller index than their
// own), refused by the destination as an alloc and as a release.
var mixedBatch = []signalling.TunnelOp{
	{Action: signalling.OpAlloc, SubFlowID: "first", Bandwidth: int64(5 * units.Mbps)},
	{Action: signalling.OpAlloc, SubFlowID: "too-big", Bandwidth: int64(200 * units.Mbps)},
	{Action: signalling.OpAlloc, SubFlowID: "ghost", Bandwidth: int64(10 * units.Mbps)},
	{Action: signalling.OpRelease, SubFlowID: "lonely"},
	{Action: signalling.OpAlloc, SubFlowID: "last", Bandwidth: int64(5 * units.Mbps)},
}

// TestTunnelBatchMixedDenialsKeepOpOrder: with a local denial in the
// middle of a batch the destination's k-th verdict belongs to a later
// op; results, reasons and rollbacks must still land on the right one.
func TestTunnelBatchMixedDenialsKeepOpOrder(t *testing.T) {
	w, u, rarID := desyncedTunnelWorld(t)
	src, dest := w.SourceDomain(), w.DestDomain()
	results, err := w.BBs[src].TunnelBatch(rarID, mixedBatch, u.DN())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"", "exceeds free capacity", `"ghost" already allocated`, `unknown sub-flow "lonely"`, ""} {
		r := results[i]
		if r.SubFlowID != mixedBatch[i].SubFlowID || r.Granted != (want == "") || !strings.Contains(r.Reason, want) || (want == "" && r.Reason != "") {
			t.Errorf("op %d (%s): %+v, want reason containing %q", i, mixedBatch[i].SubFlowID, r, want)
		}
	}
	srcEP, _ := w.BBs[src].Tunnel(rarID)
	destEP, _ := w.BBs[dest].Tunnel(rarID)
	if got := fmt.Sprint(srcEP.SubFlows(), srcEP.Used()); got != fmt.Sprint([]string{"first", "last", "lonely"}, 30*units.Mbps) {
		t.Errorf("source holds %s", got)
	}
	if got := fmt.Sprint(destEP.SubFlows(), destEP.Used()); got != fmt.Sprint([]string{"first", "ghost", "last"}, 20*units.Mbps) {
		t.Errorf("destination holds %s", got)
	}
	if bw, _ := srcEP.Lookup("lonely"); bw != 20*units.Mbps {
		t.Errorf("lonely re-admitted at %v, want its original 20Mb/s", bw)
	}
	wantTunnelCounters(t, w, src, 3, 0, 3)
	wantTunnelCounters(t, w, dest, 4, 1, 2)
}

// TestTunnelBatchTransportFailureUndoesLocalHalves: when the batch
// cannot reach the destination, every op the source applied is undone
// (an alloc released, a release re-admitted at its original size) and
// the ones it refused itself stay refused.
func TestTunnelBatchTransportFailureUndoesLocalHalves(t *testing.T) {
	w, u, rarID := desyncedTunnelWorld(t)
	srcEP, _ := w.BBs[w.SourceDomain()].Tunnel(rarID)
	if err := w.StopDomain(w.DestDomain()); err != nil {
		t.Fatal(err)
	}
	results, err := w.BBs[w.SourceDomain()].TunnelBatch(rarID, mixedBatch, u.DN())
	if err == nil || results != nil || !strings.Contains(err.Error(), "tunnel batch at destination") {
		t.Fatalf("batch to a dead destination: results=%+v err=%v", results, err)
	}
	if got := fmt.Sprint(srcEP.SubFlows(), srcEP.Used()); got != fmt.Sprint([]string{"lonely"}, 20*units.Mbps) {
		t.Errorf("source holds %s after the undo", got)
	}
}

// TestSingleSubFlowOpSurvivesLostResponse: a single allocation or
// release is a batch of one, so the retransmission callPeer sends when a
// response is lost carries the first copy's Seq and is answered from
// the destination's replay cache: the caller is told yes and both ends
// hold the same thing. (As its own message type the retransmitted alloc
// was refused as a duplicate: the caller was told no, the source
// released its half and the destination kept the sub-flow for the life
// of the tunnel.) When the destination cannot be reached at all the call
// fails and the source holds exactly what it held before.
func TestSingleSubFlowOpSurvivesLostResponse(t *testing.T) {
	var lose atomic.Bool // drop the next response on the source's outbound connection
	w, u, rarID := buildTunnelWorldWith(t, experiment.WorldConfig{
		NumDomains:   2,
		CallTimeout:  150 * time.Millisecond,
		MaxRetries:   1,
		RetryBackoff: 5 * time.Millisecond,
		WrapDialer: faultAt("Domain0", transport.FaultConfig{Script: func(_ string, send bool, _ []byte) transport.FaultAction {
			if !send && lose.CompareAndSwap(true, false) {
				return transport.FaultDrop
			}
			return transport.FaultPass
		}}),
	}, 100*units.Mbps)
	src, dst := w.BBs[w.SourceDomain()], w.BBs[w.DestDomain()]
	srcEP, _ := src.Tunnel(rarID)
	dstEP, _ := dst.Tunnel(rarID)
	// wantHeld checks both ends hold exactly ids, each at 10 Mb/s, and
	// that the destination has answered replays retransmissions from its
	// replay cache.
	wantHeld := func(when string, replays float64, ids ...string) {
		t.Helper()
		for i, ep := range []*tunnel.Endpoint{srcEP, dstEP} {
			if got, want := fmt.Sprint(ep.SubFlows(), ep.Used()), fmt.Sprint(ids, units.Bandwidth(len(ids))*10*units.Mbps); got != want {
				t.Errorf("%s: %s holds %s, want %s", when, w.Domains[i], got, want)
			}
		}
		if n := dst.MetricsRegistry().Snapshot()["bb_tunnel_batch_replays_total"]; n != replays {
			t.Errorf("%s: bb_tunnel_batch_replays_total = %v at the destination, want %v", when, n, replays)
		}
	}

	lose.Store(true)
	if err := src.AllocateTunnelFlow(rarID, "f", 10*units.Mbps, u.DN()); err != nil {
		t.Errorf("allocation whose first response was lost: %v", err)
	}
	wantHeld("after the alloc", 1, "f")
	lose.Store(true)
	if err := src.ReleaseTunnelFlow(rarID, "f"); err != nil {
		t.Errorf("release whose first response was lost: %v", err)
	}
	wantHeld("after the release", 2)
	if lose.Load() {
		t.Fatal("the script dropped nothing: the test checks nothing")
	}

	// The destination gone altogether: both calls fail, and the source is
	// left holding "kept" and nothing else.
	if err := src.AllocateTunnelFlow(rarID, "kept", 10*units.Mbps, u.DN()); err != nil {
		t.Fatal(err)
	}
	wantHeld("before the stop", 2, "kept")
	if err := w.StopDomain(w.DestDomain()); err != nil {
		t.Fatal(err)
	}
	if err := src.ReleaseTunnelFlow(rarID, "kept"); err == nil {
		t.Error("release with the destination down succeeded")
	}
	if err := src.AllocateTunnelFlow(rarID, "new", 10*units.Mbps, u.DN()); err == nil {
		t.Error("allocation with the destination down succeeded")
	}
	wantHeld("after the failed calls", 2, "kept")
}

// eachString calls fn for every string reachable from v.
func eachString(v reflect.Value, fn func(string)) {
	switch v.Kind() {
	case reflect.String:
		fn(v.String())
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			eachString(v.Elem(), fn)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			eachString(v.Field(i), fn)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			eachString(v.Index(i), fn)
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			eachString(it.Key(), fn)
			eachString(it.Value(), fn)
		}
	}
}

// TestBatchRetainsNoFrame: a decoded batch's sub-flow ids are substrings
// of one copy of its frame, so whatever outlives the request must hold
// copies of its own — one retained id pins the whole frame, and the
// replay cache lives as long as the tunnel. After a granted alloc
// batch, a partially denied one and a replayed duplicate, nothing the
// destination keeps points into a frame's text.
func TestBatchRetainsNoFrame(t *testing.T) {
	w, u, rarID := buildTunnelWorld(t, 2, 100*units.Mbps)
	dst := w.BBs[w.DestDomain()]

	type span struct{ lo, hi uintptr }
	var texts []span
	var held []*signalling.Message // keeps every text allocated, so no address is reused
	inText := func(s string) bool {
		at := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		for _, tx := range texts {
			if at >= tx.lo && at < tx.hi {
				return true
			}
		}
		return false
	}
	// deliver takes the batch through the codec, as a connection would,
	// and hands the decoded message to the destination.
	deliver := func(seq int64, ops ...signalling.TunnelOp) *signalling.ResultPayload {
		t.Helper()
		frame := (&signalling.Message{Type: signalling.MsgTunnelBatch, ID: 9, TunnelBatch: &signalling.TunnelBatchPayload{
			TunnelRARID: rarID, Seq: seq, User: u.DN(), Ops: ops, TraceID: "t-retains-no-frame",
		}}).AppendBinary(nil)
		msg, err := signalling.DecodeMessage(frame)
		if err != nil {
			t.Fatal(err)
		}
		// The text is a copy of frame[3:]; where the first id sits in the
		// frame gives its base.
		first := msg.TunnelBatch.Ops[0].SubFlowID
		if bytes.Count(frame, []byte(first)) != 1 {
			t.Fatalf("id %q is not unique in its frame", first)
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(first))) - uintptr(bytes.Index(frame[3:], []byte(first)))
		texts = append(texts, span{lo, lo + uintptr(len(frame)-3)})
		held = append(held, msg)
		for _, op := range msg.TunnelBatch.Ops {
			at := uintptr(unsafe.Pointer(unsafe.StringData(op.SubFlowID)))
			if at-lo != uintptr(bytes.Index(frame[3:], []byte(op.SubFlowID))) {
				t.Fatalf("decoded id %q is not a substring of one copy of its frame: the test checks nothing", op.SubFlowID)
			}
		}
		resp := dst.Handle(rawPeer(u), msg)
		if resp == nil || resp.Result == nil {
			t.Fatalf("batch %d: no result", seq)
		}
		return resp.Result
	}
	alloc := func(id string, mbps int) signalling.TunnelOp {
		return signalling.TunnelOp{Action: signalling.OpAlloc, SubFlowID: id, Bandwidth: int64(units.Bandwidth(mbps) * units.Mbps)}
	}

	if res := deliver(1, alloc("granted-one", 30), alloc("granted-two", 30), alloc("granted-three", 30)); !res.Granted {
		t.Fatalf("alloc batch denied: %+v", res)
	}
	// Granted, denied (capacity), granted, denied (already allocated):
	// the first result is filled in after the fact, the third in passing.
	mixed := []signalling.TunnelOp{
		alloc("mixed-fits", 5), alloc("mixed-too-big", 40),
		{Action: signalling.OpRelease, SubFlowID: "granted-one"}, alloc("granted-two", 1),
	}
	res := deliver(2, mixed...)
	if got := fmt.Sprint(res.Granted, len(res.BatchResults)); got != "false 4" {
		t.Fatalf("mixed batch: granted, results = %s, want false 4: %+v", got, res)
	}
	for i, want := range []bool{true, false, true, false} {
		if r := res.BatchResults[i]; r.Granted != want || r.SubFlowID != mixed[i].SubFlowID || (r.Reason == "") == !want {
			t.Errorf("mixed batch op %d: %+v, want granted=%t for %s", i, r, want, mixed[i].SubFlowID)
		}
	}
	if replay := deliver(2, mixed...); !reflect.DeepEqual(replay, res) {
		t.Errorf("replayed duplicate answered %+v, want the recorded %+v", replay, res)
	}
	if n := dst.MetricsRegistry().Snapshot()["bb_tunnel_batch_replays_total"]; n != 1 {
		t.Errorf("bb_tunnel_batch_replays_total = %v, want 1", n)
	}

	ep, _ := dst.Tunnel(rarID)
	if got := fmt.Sprint(ep.SubFlows()); got != "[granted-three granted-two mixed-fits]" {
		t.Errorf("destination holds %s", got)
	}
	for _, id := range ep.SubFlows() {
		if inText(id) {
			t.Errorf("endpoint key %q points into a decoded frame", id)
		}
	}
	entries := dst.ReplayEntries()
	if len(entries) != 2 {
		t.Errorf("replay cache holds %d batches, want 2", len(entries))
	}
	eachString(reflect.ValueOf(entries), func(s string) {
		if inText(s) {
			t.Errorf("replay cache string %q points into a decoded frame", s)
		}
	})
	runtime.KeepAlive(held)
}

// TestTunnelBatchDenseAllocationBound: what the destination allocates
// for a fully granted batch does not depend on how many ops it carries.
// A release batch stores no new key, so that is all of it: no more
// objects and no more bytes for 256 ops than for 64, the decode (done by
// the connection, gated in internal/signalling) excluded.
func TestTunnelBatchDenseAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is meaningless under the race detector")
	}
	// cost is the least one Handle call allocated over a series of
	// batches: the least, because the world's other goroutines and the
	// replay cache's map growth add to some calls.
	cost := func(ops int) (objects, bytes uint64) {
		w, u, rarID := buildTunnelWorld(t, 2, units.Gbps)
		dst := w.BBs[w.DestDomain()]
		ep, _ := dst.Tunnel(rarID)
		batch := make([]signalling.TunnelOp, ops)
		for i := range batch {
			batch[i] = signalling.TunnelOp{Action: signalling.OpRelease, SubFlowID: fmt.Sprintf("sf-%d", i)}
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		objects, bytes = ^uint64(0), ^uint64(0)
		for run := 0; run < 30; run++ {
			for _, op := range batch {
				if _, err := ep.Allocate(op.SubFlowID, units.Kbps); err != nil {
					t.Fatal(err)
				}
			}
			msg := &signalling.Message{Type: signalling.MsgTunnelBatch, TunnelBatch: &signalling.TunnelBatchPayload{
				TunnelRARID: rarID, Seq: int64(run + 1), Acked: int64(run), User: u.DN(), Ops: batch,
			}}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			resp := dst.Handle(rawPeer(u), msg)
			runtime.ReadMemStats(&after)
			if resp.Result == nil || !resp.Result.Granted || ep.Len() != 0 {
				t.Fatalf("release batch of %d: %+v, %d flows left", ops, resp.Result, ep.Len())
			}
			objects = min(objects, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return objects, bytes
	}
	smallObjects, smallBytes := cost(64)
	largeObjects, largeBytes := cost(256)
	if largeObjects > smallObjects || largeBytes > smallBytes {
		t.Errorf("granted release batch: %d objects / %d B for 256 ops, %d / %d for 64; want no growth with the op count",
			largeObjects, largeBytes, smallObjects, smallBytes)
	}
}

// TestDuplicateTunnelRegistrationDenied is the regression for the
// destination-side registration bug: a tunnel reserve whose RAR id
// collides with a live endpoint used to silently shadow it (the
// Registry.Add error was discarded) — it must be a denial, with the
// admission rolled back everywhere and the original endpoint intact.
func TestDuplicateTunnelRegistrationDenied(t *testing.T) {
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:  3,
		Capacity:    1000 * units.Mbps,
		CallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)

	spec := u.NewSpec(experiment.SpecOptions{
		DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps, Tunnel: true,
	})
	// Pre-provision an endpoint under the same RAR id at the
	// destination.
	ep, err := tunnel.NewEndpoint(spec.RARID, 5*units.Mbps, spec.Window,
		identity.NewDN("Grid", "Elsewhere", "bb"), identity.NewDN("Grid", "Elsewhere", "bob"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.BBs[w.DestDomain()].RegisterTunnel(ep); err != nil {
		t.Fatal(err)
	}
	// Registering the same id again is itself refused.
	if err := w.BBs[w.DestDomain()].RegisterTunnel(ep); err == nil {
		t.Fatal("second registration of the same RAR id accepted")
	}

	res, err := u.ReserveE2E(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Granted {
		t.Fatal("tunnel reserve colliding with a live endpoint was granted")
	}
	if !strings.Contains(res.Reason, "tunnel registration") {
		t.Errorf("denial reason %q does not surface the registration conflict", res.Reason)
	}
	// Nothing stranded: the optimistic admissions along the chain were
	// all rolled back.
	for _, d := range w.Domains {
		if n := grantedIn(w, d); n != 0 {
			t.Errorf("%s: %d granted reservations after denial, want 0", d, n)
		}
	}
	// The pre-provisioned endpoint survived, unshadowed.
	got, ok := w.BBs[w.DestDomain()].Tunnel(spec.RARID)
	if !ok || got.Aggregate != 5*units.Mbps {
		t.Errorf("original endpoint displaced: ok=%t ep=%+v", ok, got)
	}
}
