package bb_test

import (
	"bytes"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"e2eqos/internal/bb"
	"e2eqos/internal/experiment"
	"e2eqos/internal/journal"
	"e2eqos/internal/resv"
	"e2eqos/internal/signalling"
	"e2eqos/internal/tunnel"
	"e2eqos/internal/units"
)

// One replay engine, two feeds (DESIGN.md §6.4): the tests below hand the
// same journal records to a broker booting from a WAL and to a follower
// of a dead leader that is then promoted, and hold the two to each other.

const replayTunnel = "RAR-T"

// tunnelAt is the establishment record of replayTunnel's registration at
// epoch: 100 Mb/s, no sub-flows yet.
func tunnelAt(epoch int64) []byte {
	return bb.TunnelFrame(tunnel.EndpointSnapshot{
		RARID: replayTunnel, Aggregate: 100 * units.Mbps,
		Window: units.NewWindow(time.Unix(1_700_000_000, 0), time.Hour),
		PeerBB: replayPeer, Owner: "/O=Grid/CN=alice", Epoch: epoch,
	})
}

func allocOp(sub string, gen int64) bb.TunnelOpRec {
	return bb.TunnelOpRec{Action: "alloc", SubFlowID: sub, Bandwidth: int64(units.Mbps), Gen: gen}
}

func releaseOp(sub string, gen int64) bb.TunnelOpRec {
	return bb.TunnelOpRec{Action: "release", SubFlowID: sub, Gen: gen}
}

// replayPeer is replayTunnel's peer broker, the sender of its batches.
const replayPeer = "/O=Grid/OU=Domain1/CN=bb"

// batchAt is a batch record against replayTunnel's registration at
// epoch: with a Seq, the answering end's, its sender acknowledging
// nothing; with Seq 0, the source's.
func batchAt(epoch, seq int64, ops ...bb.TunnelOpRec) []byte {
	return ackedAt(epoch, seq, 0, ops...)
}

// ackedAt is the answering end's record of batch seq, settled with its
// sender's low-water at low.
func ackedAt(epoch, seq, low int64, ops ...bb.TunnelOpRec) []byte {
	return bb.TunnelBatchFrame(replayTunnel, epoch, replayPeer, seq, low, ops...)
}

// admitThenCompact returns genuine resv.admit and resv.compact frames of
// one reservation in a "net-Domain0" table, as that table journaled them.
func admitThenCompact(t *testing.T) (admit, compact []byte) {
	t.Helper()
	dir := t.TempDir()
	now := time.Unix(1_700_000_000, 0)
	tbl, err := resv.NewTable("net-"+sagaDomain, 100*units.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	tbl.SetClock(func() time.Time { return now })
	j, _, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	resv.AttachJournal(tbl, j)
	if _, err := tbl.Admit(resv.AdmitRequest{Bandwidth: units.Mbps, Window: units.NewWindow(now, time.Minute)}); err != nil {
		t.Fatal(err)
	}
	if n := tbl.Compact(now.Add(24 * time.Hour)); n != 1 {
		t.Fatalf("compacted %d reservations, want 1", n)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := journal.Recover(dir)
	if err != nil || len(rec.Records) != 2 {
		t.Fatalf("scratch journal: %d records, err=%v", len(rec.Records), err)
	}
	frames := make([][]byte, 2)
	for i, r := range rec.Records {
		if frames[i], err = journal.AppendRecord(nil, r.Op, journal.RawBinary(r.Data)); err != nil {
			t.Fatal(err)
		}
	}
	return frames[0], frames[1]
}

// bootFrom starts an unreplicated Domain0 broker on a state directory
// that fill has populated, the way a restarted daemon finds it, and
// returns the broker or why it did not boot.
func bootFrom(t *testing.T, fill func(dir string)) (*bb.BB, error) {
	t.Helper()
	state := t.TempDir()
	w, err := experiment.BuildWorld(experiment.WorldConfig{NumDomains: 1, StateDir: state, FsyncPolicy: "never"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if err := w.CrashDomain(sagaDomain); err != nil {
		t.Fatal(err)
	}
	fill(filepath.Join(state, sagaDomain))
	if err := w.RestartDomainFromJournal(sagaDomain); err != nil {
		return nil, err
	}
	return w.BBs[sagaDomain], nil
}

// newIdleFollower is replica 1 of a three-replica Domain0 that holds
// nothing and whose leader is dead, with the log its replicas write.
func newIdleFollower(t *testing.T) (*sagaFollower, *recordedLog) {
	t.Helper()
	log := &recordedLog{}
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains: 1, Replicas: 3, StateDir: t.TempDir(), FsyncPolicy: "never", CallTimeout: time.Second, EnableObs: true,
		Broker: bb.Config{Logger: slog.New(recordingHandler{level: slog.LevelError, log: log})},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	for i := 1; i < 3; i++ {
		eventually(t, fmt.Sprintf("replica %d joins the stream", i), func() bool {
			return replMetric(w, sagaDomain, i, "bb_repl_snapshots_installed_total") >= 1
		})
	}
	if _, err := w.KillLeader(sagaDomain); err != nil {
		t.Fatal(err)
	}
	return &sagaFollower{t: t, w: w, b: w.ReplicaBB(sagaDomain, 1)}, log
}

// streamFrames delivers frames in order, cut into messages of up to max
// frames at points rng picks, and reports whether the follower took them
// all; it stops at the first message the follower refuses.
func (f *sagaFollower) streamFrames(rng *rand.Rand, max int, frames ...[]byte) bool {
	for len(frames) > 0 {
		n := 1 + rng.Intn(min(max, len(frames)))
		if !f.offer(signalling.JournalStreamPayload{FromSeq: f.b.ReplicationStatus().AppliedSeq, Records: frames[:n]}) {
			return false
		}
		frames = frames[n:]
	}
	return true
}

// holds describes what the replay tests look at: the table's size, the
// tunnel's registration, generation and sub-flows, the replay cache.
func holds(b *bb.BB) string {
	tun := "no tunnel"
	if ep, ok := b.Tunnel(replayTunnel); ok {
		tun = fmt.Sprintf("tunnel@%d gen=%d %v", ep.Epoch, ep.Snapshot().Gen, ep.SubFlows())
	}
	return fmt.Sprintf("%d reservations, %s, %d replay entries", b.Table().Len(), tun, len(b.ReplayEntries()))
}

// TestReplayEdgesThroughBothFeeds: every edge the boot-time and the
// follower-side replay used to own separately, through both feeds of the
// one engine. Each row is a journal tail; a broker booted from it and a
// follower streamed it in randomly cut messages and then promoted must
// hold the stated state, and the same state byte for byte — or, for a
// tail no build writes any more (each object journals in apply order),
// both must refuse it for the stated reason: the boot stops, the
// follower refuses the message.
func TestReplayEdgesThroughBothFeeds(t *testing.T) {
	admit, compact := admitThenCompact(t)
	const seed = 24
	rng := rand.New(rand.NewSource(seed))
	const outOfOrder = `tunnel RAR-T: alloc of sub-flow "b" at generation 2 does not follow the endpoint's generation 0`
	for _, row := range []struct {
		name   string
		frames [][]byte
		want   string
		refuse string
	}{
		// No table journals this order; replay keeps no state, so the
		// late admit applies.
		{"compact before its admit", [][]byte{compact, admit},
			"1 reservations, no tunnel, 0 replay entries", ""},
		{"generation inversion inside the tail", [][]byte{
			tunnelAt(1), batchAt(1, 2, allocOp("b", 2), allocOp("c", 4)), batchAt(1, 1, allocOp("a", 1), releaseOp("b", 3)),
		}, "", outOfOrder},
		{"generation gap at the end", [][]byte{tunnelAt(1), batchAt(1, 2, allocOp("b", 2))}, "", outOfOrder},
		{"op from a dead epoch", [][]byte{tunnelAt(1), bb.TunnelRemoveFrame(replayTunnel, 1), tunnelAt(2), batchAt(1, 0, allocOp("x", 1))},
			"0 reservations, tunnel@2 gen=0 [], 0 replay entries", ""},
		{"op after its tunnel's removal", [][]byte{tunnelAt(1), bb.TunnelRemoveFrame(replayTunnel, 1), batchAt(1, 0, allocOp("x", 1))},
			"0 reservations, no tunnel, 0 replay entries", ""},
		// A batch record whose registration is not held is dropped.
		{"op ahead of its establishment", [][]byte{batchAt(1, 1, allocOp("a", 1)), tunnelAt(1)},
			"0 reservations, tunnel@1 gen=0 [], 0 replay entries", ""},
		{"tunnel re-registered at a higher epoch", [][]byte{
			tunnelAt(1), batchAt(1, 0, allocOp("a", 1)), tunnelAt(2), batchAt(2, 1, allocOp("b", 1)), tunnelAt(1),
		}, "0 reservations, tunnel@2 gen=1 [b], 1 replay entries", ""},
		{"establishment repeated after its ops", [][]byte{tunnelAt(1), batchAt(1, 1, allocOp("a", 1)), tunnelAt(1)},
			"0 reservations, tunnel@1 gen=1 [a], 1 replay entries", ""},
		{"establishment that never arrives", [][]byte{batchAt(1, 1, allocOp("a", 1))},
			"0 reservations, no tunnel, 0 replay entries", ""},
		{"batch answered after its tunnel's removal", [][]byte{tunnelAt(1), bb.TunnelRemoveFrame(replayTunnel, 1), batchAt(1, 1, allocOp("x", 1))},
			"0 reservations, no tunnel, 0 replay entries", ""},
		{"a low-water retires the batches it covers", [][]byte{tunnelAt(1), batchAt(1, 1, allocOp("a", 1)), ackedAt(1, 2, 1, allocOp("b", 2))},
			"0 reservations, tunnel@1 gen=2 [a b], 1 replay entries", ""},
		// Batch 1 applied no op, so its record may follow batch 2's.
		{"an acknowledged batch recorded after its acknowledgement", [][]byte{tunnelAt(1), ackedAt(1, 2, 1, allocOp("a", 1)), batchAt(1, 1)},
			"0 reservations, tunnel@1 gen=1 [a], 1 replay entries", ""},
	} {
		t.Run(row.name, func(t *testing.T) {
			booted, bootErr := bootFrom(t, func(dir string) {
				if err := os.WriteFile(filepath.Join(dir, "wal.log"), bytes.Join(row.frames, nil), 0o644); err != nil {
					t.Fatal(err)
				}
			})
			f, log := newIdleFollower(t)
			took := f.streamFrames(rng, len(row.frames), row.frames...)
			if row.refuse != "" {
				if bootErr == nil || !strings.Contains(bootErr.Error(), row.refuse) {
					t.Errorf("the boot ended with %v, want a refusal: %s", bootErr, row.refuse)
				}
				refused := log.find(sagaDomain, "replication: stream message refused")
				if took || !strings.Contains(refused["err"], row.refuse) {
					t.Errorf("the follower took every message: %t, refused one with %q, want a refusal: %s (seed %d)", took, refused["err"], row.refuse, seed)
				}
				return
			}
			if bootErr != nil {
				t.Fatal(bootErr)
			}
			if !took {
				t.Fatalf("the follower refused a message (seed %d): %v", seed, log.find(sagaDomain, "replication: stream message refused"))
			}
			f.promote()
			for feed, b := range map[string]*bb.BB{"booted from the WAL": booted, "promoted follower": f.b} {
				if got := holds(b); got != row.want {
					t.Errorf("%s (seed %d) holds %s, want %s", feed, seed, got, row.want)
				}
			}
			want, err := booted.DigestSansEpoch()
			if err != nil {
				t.Fatal(err)
			}
			if got, err := f.b.DigestSansEpoch(); err != nil || !bytes.Equal(got, want) {
				t.Errorf("the feeds disagree (seed %d, err=%v)\n booted:   %x\n promoted: %x", seed, err, want, got)
			}
		})
	}
}

// TestTunnelBatchReplayAllocationBound: a follower applying a
// bb.tunnel_batch record allocates per record, not per op — the record's
// strings come from one copy of it, its ops slice is made once, and the
// alloc ops' ids go into one Keys — so a 256-op record of allocations
// costs it no more objects than a 64-op one.
func TestTunnelBatchReplayAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is meaningless under the race detector")
	}
	f, _ := newIdleFollower(t)
	f.stream(signalling.JournalStreamPayload{FromSeq: f.b.ReplicationStatus().AppliedSeq, Records: [][]byte{tunnelAt(1)}})
	var gen, seq int64
	cost := func(n int) uint64 {
		least := ^uint64(0)
		for run := 0; run < 20; run++ {
			allocs, releases := make([]bb.TunnelOpRec, n), make([]bb.TunnelOpRec, n)
			for i := range allocs {
				id := fmt.Sprintf("sf-%d-%d", run, i)
				allocs[i] = bb.TunnelOpRec{Action: "alloc", SubFlowID: id, Bandwidth: int64(units.Kbps), Gen: gen + int64(1+i)}
				releases[i] = releaseOp(id, gen+int64(n+1+i))
			}
			gen += 2 * int64(n)
			seq++
			alloc, release := ackedAt(1, seq, seq-1, allocs...), ackedAt(1, seq+1, seq, releases...)
			seq++
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			took := f.offer(signalling.JournalStreamPayload{FromSeq: f.b.ReplicationStatus().AppliedSeq, Records: [][]byte{alloc}})
			runtime.ReadMemStats(&after)
			if ep, _ := f.b.Tunnel(replayTunnel); !took || ep.Len() != n {
				t.Fatalf("record of %d allocations: taken %t, %s", n, took, holds(f.b))
			}
			least = min(least, after.Mallocs-before.Mallocs)
			f.stream(signalling.JournalStreamPayload{FromSeq: f.b.ReplicationStatus().AppliedSeq, Records: [][]byte{release}})
		}
		return least
	}
	small, large := cost(64), cost(256)
	if large > small {
		t.Errorf("a record of 256 allocations costs the follower %d objects, one of 64 %d; want no growth with the op count", large, small)
	} else {
		t.Logf("a record of allocations costs the follower %d objects at 64 ops, %d at 256", small, large)
	}
}
