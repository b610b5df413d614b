package bb

import (
	"fmt"
	"strings"

	"e2eqos/internal/identity"
	"e2eqos/internal/journal"
	"e2eqos/internal/resv"
	"e2eqos/internal/signalling"
	"e2eqos/internal/tunnel"
	"e2eqos/internal/units"
	"e2eqos/internal/wire"
)

// CommitGate appends one record that changes nothing (the cancel of a
// RAR nobody registered) and waits for its majority commit: the leader's
// settle path with no handler around it, for BenchmarkReplCommitGate.
func (b *BB) CommitGate() {
	b.journalRARCancel("bench-commit-gate", 0)
	b.replWaitCommit()
}

// CommitGateReserve journals what a granted reserve journals at its
// source — the table's resv.admit, then a bb.rar whose outcome carries
// approvals — and waits for their majority commit: the expensive shape
// of BenchmarkReplCommitGate. Each call admits a 1 bit/s reservation
// over window and registers the route under one RAR id at a fresh
// epoch, so on a window long past the table's sweep and the followers'
// replacement of the route keep the state from growing.
func (b *BB) CommitGateReserve(window units.Window, outcome *signalling.Message) error {
	r, err := b.table.Admit(resv.AdmitRequest{User: b.DN(), SrcHost: "hostA.", DstHost: "hostB.", Bandwidth: 1, Window: window})
	if err != nil {
		return err
	}
	e := entry[route]{key: "RAR-gate", epoch: b.mintEpoch(), val: route{Handle: r.Handle, SourceBB: b.DN()}, outcome: outcome}
	b.journalRAR(&e)
	b.replWaitCommit()
	return nil
}

// RecoverScribbled replays the journal directory dir into a memory-only
// broker built from b's configuration, exactly as boot recovery replays
// it, then overwrites every byte recovery read — the snapshot and the
// WAL from the first record on — and returns that broker.
func (b *BB) RecoverScribbled(dir string) (*BB, error) {
	rec, err := journal.Recover(dir)
	if err != nil {
		return nil, err
	}
	cfg := b.cfg
	cfg.StateDir, cfg.Metrics, cfg.Recorder = "", nil, nil
	cfg.ReplicaID, cfg.ReplicaAddrs, cfg.StartAsFollower = 0, nil, false
	nb, err := New(cfg)
	if err != nil {
		return nil, err
	}
	nb.replay = newReplayer(nb)
	if err := nb.recoverState(rec); err != nil {
		nb.Close()
		return nil, err
	}
	scribble := func(b []byte) {
		for i := range b {
			b[i] = 0x5A
		}
	}
	scribble(rec.Snapshot)
	if len(rec.Records) > 0 {
		scribble(rec.Records[0].Data[:cap(rec.Records[0].Data)])
	}
	return nb, nil
}

// ReplayEntry is what the batch replay cache keeps of one batch.
type ReplayEntry struct {
	RARID   string
	Sender  identity.DN
	Seq     int64
	Outcome *signalling.Message
}

// ReplayEntries lists the settled batches in the replay caches of every
// tunnel registration, for tests of what a settled batch leaves behind.
func (b *BB) ReplayEntries() []ReplayEntry {
	var out []ReplayEntry
	for _, t := range b.tunnels.list() {
		for _, r := range t.val.batches.list() {
			if r.Seq != 0 {
				out = append(out, ReplayEntry{RARID: t.key, Sender: r.Sender, Seq: r.Seq, Outcome: r.Outcome})
			}
		}
	}
	return out
}

// LowWater is sender's acknowledged low-water on tunnel rarID's
// registration: no batch of that sender at or below it is applied.
func (b *BB) LowWater(rarID string, sender identity.DN) int64 {
	t, _ := b.tunnels.get(rarID)
	if t.val.batches == nil {
		return 0
	}
	t.val.batches.mu.Lock()
	defer t.val.batches.mu.Unlock()
	for _, w := range t.val.batches.windows {
		if w.sender == sender {
			return w.low
		}
	}
	return 0
}

// MaxHeldBatches is how many replay entries one sender may hold on one
// tunnel registration.
const MaxHeldBatches = maxHeldBatches

// ReplTailBytes caps the journal tail a replication leader keeps for a
// follower that stopped acknowledging.
const ReplTailBytes = replTailBytes

// CompArg encodes a compensation argument as the reserve path journals
// it, for tests that pin saga records byte for byte.
func CompArg(peer identity.DN, key, handle string) []byte {
	return compArg{Peer: peer, Key: key, Handle: handle}.AppendBinary(nil)
}

// NormalizeRARRecord decodes a journaled bb.rar payload and encodes it
// again with what differs from run to run fixed: the RAR id (in the
// record's own key and in every downstream key) becomes "R", the handle
// "H", the epoch 1, and the outcome, which carries signatures, is left
// out. What remains is the route bookkeeping a golden can pin.
func NormalizeRARRecord(data []byte, rarID string) ([]byte, error) {
	var r rarRec
	if err := r.DecodeBinary(data); err != nil {
		return nil, err
	}
	fix := func(key string) string { return strings.Replace(key, rarID, "R", 1) }
	r.RARID = fix(r.RARID)
	for i := range r.Legs {
		r.Legs[i].Key = fix(r.Legs[i].Key)
	}
	r.Handle, r.Epoch, r.Outcome = "H", 1, nil
	return r.AppendBinary(nil), nil
}

// RegisterTunnel registers an endpoint the way an establishment does,
// for tests that pre-provision one under a RAR id a reserve then reuses.
func (b *BB) RegisterTunnel(ep *tunnel.Endpoint) error { return b.registerTunnel(ep) }

// TunnelOpRec is one journaled sub-flow mutation, for tests that write
// the tunnel vocabulary's records by hand.
type TunnelOpRec = tunnelOpRec

// frame encodes one record as the WAL and the replication stream carry
// it.
func frame(op string, rec journal.BinaryRecord) []byte {
	f, err := journal.EncodeRecord(op, rec)
	if err != nil {
		panic(err)
	}
	return f
}

// TunnelFrame is a bb.tunnel record: an establishment.
func TunnelFrame(ts tunnel.EndpointSnapshot) []byte { return frame(opTunnel, ts) }

// TunnelRemoveFrame is a bb.tunnel_remove record.
func TunnelRemoveFrame(rarID string, epoch int64) []byte {
	return frame(opTunnelRemove, rarCancelRec{RARID: rarID, Epoch: epoch})
}

// TunnelBatchFrame is a bb.tunnel_batch record. With a Seq it is the
// answering end's, from sender at low-water low, and carries a granted
// outcome; with Seq 0, the source's.
func TunnelBatchFrame(rarID string, epoch int64, sender identity.DN, seq, low int64, ops ...TunnelOpRec) []byte {
	rec := tunnelBatchRec{RARID: rarID, Epoch: epoch, Ops: ops}
	if seq != 0 {
		rec.Sender, rec.Seq, rec.Low = sender, seq, low
		rec.Outcome = &signalling.Message{Type: signalling.MsgResult, Result: &signalling.ResultPayload{Granted: true}}
	}
	return frame(opTunnelBatch, rec)
}

// RARCancelFrame is a bb.rar_cancel record; of a RAR nobody registered,
// at epoch 0, it changes nothing.
func RARCancelFrame(rarID string, epoch int64) []byte {
	return frame(opRARCancel, rarCancelRec{RARID: rarID, Epoch: epoch})
}

// EpochFenceStride is how far a broker raises its epoch counter when
// it boots from its journal or wins an election.
const EpochFenceStride = epochFenceStride

// Epoch reads the broker's epoch counter.
func (b *BB) Epoch() int64 { return b.epoch.Load() }

// DigestSansEpoch is StateDigest with the epoch counter zeroed: a
// promoted follower's, or a broker's booted from its journal, is fenced
// past anything its journal holds, by design, so it is the one field
// that may differ from the state the journal was written by.
func (b *BB) DigestSansEpoch() ([]byte, error) {
	data, err := b.snapshotState()
	if err != nil {
		return nil, err
	}
	st, err := decodeBrokerState(data)
	if err != nil {
		return nil, err
	}
	st.Epoch = 0
	return st.appendBinary(nil), nil
}

// JournalOrder reads the state directory dir and lists every record that
// is not where the order its object applied it in puts it: on each tunnel
// registration a batch record before the registration's bb.tunnel record,
// or an op whose generation does not follow the one before it (ops the
// snapshot reflects aside); in the table a resv.admit after a
// resv.compact that removed its handle.
func JournalOrder(dir string) ([]string, error) {
	rec, err := journal.Recover(dir)
	if err != nil {
		return nil, err
	}
	type reg struct{ snap, last int64 }
	regs := make(map[string]*reg)
	key := func(rarID string, epoch int64) string { return fmt.Sprintf("%s@%d", rarID, epoch) }
	if rec.Snapshot != nil {
		st, err := decodeBrokerState(rec.Snapshot)
		if err != nil {
			return nil, err
		}
		for _, ts := range st.Tunnels {
			regs[key(ts.RARID, ts.Epoch)] = &reg{ts.Gen, ts.Gen}
		}
	}
	ended := make(map[string]bool)     // registrations removed
	compacted := make(map[string]bool) // handles removed
	var bad []string
	for i, r := range rec.Records {
		switch r.Op {
		case opTunnel:
			var ts tunnel.EndpointSnapshot
			if err := r.Decode(&ts); err != nil {
				return nil, err
			}
			if regs[key(ts.RARID, ts.Epoch)] == nil {
				regs[key(ts.RARID, ts.Epoch)] = &reg{ts.Gen, ts.Gen}
			}
		case opTunnelRemove:
			rarID, epoch, err := decodeRemoval(r.Data)
			if err != nil {
				return nil, err
			}
			ended[key(string(rarID), epoch)] = true
		case opTunnelBatch:
			var br tunnelBatchRec
			if err := r.Decode(&br); err != nil {
				return nil, err
			}
			k := key(br.RARID, br.Epoch)
			g := regs[k]
			if g == nil {
				if !ended[k] {
					bad = append(bad, fmt.Sprintf("record %d: a batch on %s before its establishment", i, k))
				}
				continue
			}
			for _, op := range br.Ops {
				if op.Gen > g.snap && op.Gen != g.last+1 {
					bad = append(bad, fmt.Sprintf("record %d: %s op at generation %d after %d", i, k, op.Gen, g.last))
				}
				g.last = max(g.last, op.Gen)
			}
		case "resv.admit": // 1=reservation{1=handle}
			for _, resv := range field1(r.Data) {
				for _, h := range field1([]byte(resv)) {
					if compacted[h] {
						bad = append(bad, fmt.Sprintf("record %d: the admit of %s after a compact removed it", i, h))
					}
				}
			}
		case "resv.compact": // repeated 1=handle
			for _, h := range field1(r.Data) {
				compacted[h] = true
			}
		}
	}
	return bad, nil
}

// field1 returns the values of a wire body's length-delimited field 1.
func field1(body []byte) []string {
	var out []string
	d := wire.Dec{Buf: body}
	for d.More() {
		if f, wt := d.Tag(); f == 1 && wt == wire.TBytes {
			out = append(out, d.String())
		} else {
			d.Skip(wt)
		}
	}
	return out
}
