// Package signalling defines the inter-BB wire protocol: message
// formats, the grant statements and signed refusals that propagate
// back to the source, and client/server plumbing over the transport
// abstraction. It carries the core package's nested RAR envelopes
// between brokers and the direct tunnel-allocation traffic between end
// domains.
package signalling

import (
	"fmt"
	"hash/maphash"
	"math/bits"

	"e2eqos/internal/envelope"
	"e2eqos/internal/identity"
	"e2eqos/internal/obs"
	"e2eqos/internal/wire"
)

// MsgType discriminates protocol messages.
type MsgType string

// Protocol message types.
const (
	// MsgReserve carries a (possibly nested) RAR envelope downstream.
	MsgReserve MsgType = "reserve"
	// MsgCancel withdraws a reservation by RAR id along the path.
	MsgCancel MsgType = "cancel"
	// MsgTunnelBatch carries sub-flow alloc/release operations inside an
	// established tunnel over the direct source/end-domain channel, one
	// or many per RPC (a single allocation is a batch of one); the result
	// reports a per-op verdict. Batches are idempotent: a retransmission
	// with the same Seq from the same sender is answered from the
	// receiver's replay cache.
	MsgTunnelBatch MsgType = "tunnel-batch"
	// MsgStatus queries a reservation handle.
	MsgStatus MsgType = "status"
	// MsgResult is the response to any request.
	MsgResult MsgType = "result"
	// MsgJournalStream carries broker replication traffic between the
	// replicas of one domain: journal record batches and heartbeats
	// from the leader, catch-up snapshots for lagging followers, and
	// vote requests during leader election. Only a peer holding the
	// domain's own broker identity may send it.
	MsgJournalStream MsgType = "journal-stream"
)

// ReserveMode selects the propagation behaviour of a reserve request.
type ReserveMode string

// Reservation modes.
const (
	// ModeEndToEnd propagates hop-by-hop to the destination domain
	// (the paper's Approach 2).
	ModeEndToEnd ReserveMode = "e2e"
	// ModeLocal reserves in the receiving domain only; the
	// source-domain-based baseline (Approach 1) issues one local
	// request per domain. Nothing stops a malicious client from
	// skipping a domain — which is exactly the Figure 4 attack.
	ModeLocal ReserveMode = "local"
)

// Message is the wire frame; exactly one payload field is set
// according to Type.
type Message struct {
	Type MsgType
	// ID matches responses to requests over a shared connection.
	ID uint64

	Reserve       *ReservePayload
	Cancel        *CancelPayload
	TunnelBatch   *TunnelBatchPayload
	Status        *StatusPayload
	Result        *ResultPayload
	JournalStream *JournalStreamPayload
}

// ReservePayload carries the RAR envelope.
type ReservePayload struct {
	Mode ReserveMode
	// TraceID, when non-empty, asks every hop on the chain to record
	// a trace span; the spans come back in the result payload. Empty
	// disables tracing at zero per-hop cost.
	TraceID string
	// Sampled marks a flight-recorder pick made by the ingress hop (the
	// broker that received the RAR from the user). It propagates down
	// the chain so every hop records the same requests — mid-chain hops
	// never roll their own dice, which would compound the rate per hop.
	Sampled bool
	// EnvelopeData is the encoded envelope (RAR_U, RAR_A, ...),
	// carried as opaque bytes: the envelope's canonical binary encoding.
	EnvelopeData []byte
	// PathPin is the full domain path the ingress broker selected for
	// this attempt. Mid-chain hops forward along it instead of running
	// their own next-hop computation, so a re-routed or split RAR stays
	// on its edge-disjoint path. Empty means unpinned forwarding, the
	// default single-path mode: each hop follows its own best path.
	// Brokers reject it on user-facing channels: only peers pin paths.
	PathPin []string
	// Attempt is the ingress re-route attempt index (0 = primary path).
	// It salts the per-hop idempotency key so a re-routed RAR is not
	// mistaken for a duplicate at domains shared between paths.
	Attempt int
	// SplitPart / SplitOf / SplitBW describe one child of a reservation
	// the ingress split across disjoint paths: this child is part
	// SplitPart of SplitOf and asks for SplitBW bits per second of the
	// signed total (SplitBW may only reduce the user-signed bandwidth,
	// never raise it). Zero values mean an unsplit reservation.
	SplitPart int
	SplitOf   int
	SplitBW   int64

	// env is the envelope of a payload built here (NewReserveMessage):
	// it is encoded straight into the frame, never into EnvelopeData.
	env *envelope.Envelope
	// decoded is the outer layer of a received payload's envelope, once
	// EnvelopeFrom has decoded it: it lives as long as the payload, a
	// served request's until the server decodes the next one into it.
	decoded envelope.Envelope
}

// Envelope returns the carried envelope, decoded in place out of
// EnvelopeData on a received payload.
func (p *ReservePayload) Envelope() (*envelope.Envelope, error) { return p.EnvelopeFrom("") }

// EnvelopeFrom is Envelope for a payload received from peer: an outer
// layer that names peer as its signer gets peer's DN, not a copy of the
// name (envelope.DecodeInto). A received payload's envelope is decoded into
// the payload itself and is valid as long as the payload is.
func (p *ReservePayload) EnvelopeFrom(peer identity.DN) (*envelope.Envelope, error) {
	if p.env != nil {
		return p.env, nil
	}
	if err := envelope.DecodeInto(&p.decoded, p.EnvelopeData, peer); err != nil {
		return nil, err
	}
	return &p.decoded, nil
}

// Forward builds the message that carries env on to the next hop with
// everything else of p riding along unchanged: the trace id and sampling
// decision, the pin, the attempt and the split fields.
func (p *ReservePayload) Forward(env *envelope.Envelope) *Message {
	next := *p
	next.Mode, next.EnvelopeData, next.env, next.decoded = ModeEndToEnd, nil, env, envelope.Envelope{}
	return &Message{Type: MsgReserve, Reserve: &next}
}

// CancelPayload withdraws the reservation created under RARID.
type CancelPayload struct {
	RARID string
}

// TunnelOpAction discriminates batch operations.
type TunnelOpAction string

// Batch operation actions.
const (
	// OpAlloc admits a new sub-flow.
	OpAlloc TunnelOpAction = "alloc"
	// OpRelease frees an existing sub-flow.
	OpRelease TunnelOpAction = "release"
)

// TunnelOp is one alloc or release inside a batch. Bandwidth (bits per
// second) is required for alloc and ignored for release.
type TunnelOp struct {
	Action    TunnelOpAction
	SubFlowID string
	Bandwidth int64
}

// TunnelBatchPayload applies Ops, in order, against the tunnel
// established by TunnelRARID. A batch is identified by its sender (the
// peer the receiver authenticated) and Seq, which keys the receiver's
// replay cache: a retransmission with the same Seq returns the recorded
// outcome instead of re-applying the ops.
type TunnelBatchPayload struct {
	TunnelRARID string
	// Seq numbers the sender's batches on this tunnel; it only grows.
	Seq int64
	// Acked is the sender's low-water: every batch of this sender with
	// Seq <= Acked has settled and will never be sent again, so the
	// receiver retires their replay entries and refuses them as stale.
	Acked int64
	User  identity.DN
	Ops   []TunnelOp
	// TraceID/Sampled carry the source broker's flight-recorder pick to
	// the far endpoint, so sampled events cover both halves of a batch
	// under one trace id (same contract as ReservePayload).
	TraceID string
	Sampled bool

	// Deprecated: BatchID is neither encoded nor checked; a batch is
	// identified by its sender and Seq. bench/ladder.go still sets it;
	// the field and NewBatchID go once it does not.
	BatchID string
}

// MaxBatchOps is the most ops one batch may carry. The decoder sizes
// Ops from a count of the frame's op fields, so without a bound that
// allocation would be the sender's to choose.
const MaxBatchOps = 1 << 16

var errBatchTooLarge = fmt.Errorf("signalling: batch of more than %d ops", MaxBatchOps)

// dupSeed keys the hash of Validate's duplicate table per process, as
// the runtime keys its maps: a peer cannot choose ids that share one
// probe run.
var dupSeed = maphash.MakeSeed()

// Validate rejects structurally bad batches before any op is applied.
// A Seq of 0 passes, so that a source can check its op list before its
// local pass mints the Seq; no endpoint applies such a batch, 0 being at
// or below every sender's low-water.
func (p *TunnelBatchPayload) Validate() error {
	if p.TunnelRARID == "" {
		return fmt.Errorf("signalling: batch without tunnel rar id")
	}
	if p.Seq < 0 || p.Acked < 0 {
		return fmt.Errorf("signalling: batch with negative seq %d or acked %d", p.Seq, p.Acked)
	}
	if p.Acked > 0 && p.Acked >= p.Seq {
		return fmt.Errorf("signalling: batch %d acknowledges %d, not below itself", p.Seq, p.Acked)
	}
	if len(p.Ops) == 0 {
		return fmt.Errorf("signalling: empty batch")
	}
	if len(p.Ops) > MaxBatchOps {
		return errBatchTooLarge
	}
	// Duplicate ids are found with an open-addressed table of op indexes
	// (stored +1, zero is an empty slot), at most half full and probed
	// linearly. Up to 512 ops it lives on the stack, so validating a
	// batch allocates nothing.
	var stack [1024]uint32
	tab := stack[:]
	if 2*len(p.Ops) > len(tab) {
		tab = make([]uint32, 1<<bits.Len(uint(2*len(p.Ops)-1)))
	}
	mask := uint64(len(tab) - 1)
	for i := range p.Ops {
		op := &p.Ops[i]
		if op.SubFlowID == "" {
			return fmt.Errorf("signalling: batch op %d without sub-flow id", i)
		}
		for s := maphash.String(dupSeed, op.SubFlowID) & mask; ; s = (s + 1) & mask {
			if tab[s] == 0 {
				tab[s] = uint32(i) + 1
				break
			}
			if p.Ops[tab[s]-1].SubFlowID == op.SubFlowID {
				return fmt.Errorf("signalling: batch op %d: duplicate sub-flow %q", i, op.SubFlowID)
			}
		}
		switch op.Action {
		case OpAlloc:
			if op.Bandwidth <= 0 {
				return fmt.Errorf("signalling: batch op %d: non-positive bandwidth %d", i, op.Bandwidth)
			}
		case OpRelease:
		default:
			return fmt.Errorf("signalling: batch op %d: unknown action %q", i, op.Action)
		}
	}
	return nil
}

// TunnelOpResult is the per-op verdict inside a batch result, in the
// same order as the request's Ops.
type TunnelOpResult struct {
	SubFlowID string
	Granted   bool
	Reason    string
}

// NewBatchID returns "": nothing reads a BatchID.
//
// Deprecated: a batch is identified by its sender and Seq.
func NewBatchID() string { return "" }

// StatusPayload queries the reservation created under RARID.
type StatusPayload struct {
	RARID string
}

// Journal stream kinds (JournalStreamPayload.Kind).
const (
	// StreamRecords ships a batch of raw journal frames (possibly
	// preceded by a catch-up snapshot) from the leader to a follower.
	// An empty batch is a heartbeat: it asserts the leader's term and
	// shares the group commit sequence.
	StreamRecords = 0
	// StreamVote requests an election vote: the candidate's Term is the
	// term it is standing for and FromSeq the last sequence it applied.
	StreamVote = 1
)

// JournalStreamPayload is the replication message exchanged between
// the replicas of one domain (DESIGN.md §6.8). The leader streams raw
// CRC-framed journal records in Records starting at FromSeq+1; a
// follower that lags past the leader's in-memory tail first receives a
// full Snapshot cut at SnapSeq, with Records extending it. CommitSeq
// is the highest sequence acknowledged by a majority; followers answer
// with a ResultPayload carrying their own AckSeq and Term, built in the
// served message's reply slot (Peer.Reply).
//
// A decoded payload aliases its frame (DESIGN.md §6.6, "Who owns a
// frame"): Snapshot and every record are sub-slices of it, valid while
// the message is being handled. A receiver copies whatever it keeps.
type JournalStreamPayload struct {
	// Kind discriminates record batches (StreamRecords) from vote
	// requests (StreamVote).
	Kind int
	// Domain is the replicated domain; a replica rejects streams for a
	// domain it does not serve.
	Domain string
	// Term is the sender's election term. A receiver with a higher term
	// answers Granted=false with its own term, fencing the stale leader.
	Term int64
	// LeaderID identifies the sending replica (the candidate, for
	// votes).
	LeaderID int
	// FromSeq is the sequence number the first record in Records
	// extends (i.e. records cover FromSeq+1 .. FromSeq+len(Records)).
	// For votes it is the candidate's last applied sequence.
	FromSeq int64
	// CommitSeq is the group's majority-acknowledged sequence.
	CommitSeq int64
	// Snapshot, when non-empty, is a full broker state snapshot the
	// follower must install before applying Records; SnapSeq is the
	// journal sequence it was cut at.
	Snapshot []byte
	SnapSeq  int64
	// Records are raw journal frames, exactly as they sit in the
	// leader's WAL.
	Records [][]byte
}

// ResultPayload answers any request. For reserve requests, the approvals
// carry one approval per domain on the path, destination first. A
// grant's are claims under the destination's one statement (SignGrant);
// a denial's are refusals, each signed by the hop that appended it on
// the way back upstream. They travel as Stack, then Approvals.
type ResultPayload struct {
	Granted bool
	Reason  string
	// Handle is the local reservation handle in the responding domain.
	Handle string
	// Stack is the approvals a result was answered with, encoded, as
	// they came: a decoded result holds all of its approvals here, and a
	// broker passes them on without reading them. DecodeApprovals turns
	// them into Approvals for a reader that checks them.
	Stack string
	// Approvals are the grant's claims or the denial's refusals that
	// follow Stack: on a decoded result, none until DecodeApprovals; on
	// a result a broker builds, the ones it adds.
	Approvals []DomainApproval
	// PolicyInfo carries returned attributes (cost quotes etc.).
	PolicyInfo map[string]string
	// TraceID echoes the request's trace id on traced reserves.
	TraceID string
	// Trace accumulates per-hop spans along the return path,
	// destination first — the observability analogue of Approvals.
	Trace []obs.Span
	// BatchResults carries the per-op verdicts for a tunnel batch, in
	// request order. Granted above is the AND of all op verdicts.
	BatchResults []TunnelOpResult
	// AckSeq acknowledges a journal stream: the highest sequence the
	// answering follower has applied (and re-journaled). Zero outside
	// replication traffic.
	AckSeq int64
	// Term is the answering replica's election term, echoed so a stale
	// leader (or candidate) learns it has been superseded.
	Term int64
}

// DomainApproval is one domain's word about a RAR: a refusal, signed by
// its broker alone, or one claim of a grant — the domain admitted the
// RAR under Handle — which the statement it follows covers.
type DomainApproval struct {
	Domain  string
	BBDN    identity.DN
	RARID   string // set on refusals and statements, not on the claims a statement covers
	Handle  string
	Granted bool
	Reason  string
	// Signature is the broker's signature: over the refusal's canonical
	// payload, or over the grant statement this claim opens. Empty on a
	// claim a statement covers.
	Signature []byte
}

// approvalPayload is the canonical byte string a domain approval
// signature covers: a domain-separation prefix plus the approval's
// binary field encoding (without the signature field). Every field is
// length-prefixed and tagged, so no value can shift bytes into a
// neighbouring field — the `|`-joined text form this replaces let a
// Reason or Handle containing '|' masquerade as another field under
// the same signature.
func approvalPayload(a *DomainApproval) []byte {
	buf := append(make([]byte, 0, 128), "e2eqos-approval-v1\x00"...)
	return a.appendCore(buf)
}

// SignApproval fills in the signature using the broker's key.
func SignApproval(a *DomainApproval, key *identity.KeyPair) error {
	sig, err := key.Sign(approvalPayload(a))
	if err != nil {
		return fmt.Errorf("signalling: signing approval: %w", err)
	}
	a.Signature = sig
	return nil
}

// VerifyApproval checks the approval against the broker's public key.
func VerifyApproval(a *DomainApproval, pub identity.PublicKey) error {
	if a == nil {
		return fmt.Errorf("signalling: nil approval")
	}
	if err := identity.Verify(pub, approvalPayload(a), a.Signature); err != nil {
		return fmt.Errorf("signalling: approval by %s: %w", a.BBDN, err)
	}
	return nil
}

// appendGrantPayload appends the canonical byte string a grant
// statement's signature covers: a domain-separation prefix, the RAR id,
// then each claim in order, the signer's own first, as a nested field
// of its core encoding, so that no claim can shift bytes into its
// neighbour or vanish for being empty. Its callers build it in a buffer
// on their stack: a statement over a path of up to about ten domains is
// signed or checked without allocating its payload.
func appendGrantPayload(buf []byte, rarID string, claims []DomainApproval) []byte {
	buf = append(buf, "e2eqos-grant-v1\x00"...)
	buf = wire.AppendString(buf, 1, rarID)
	for i := range claims {
		var start int
		buf, start = wire.BeginNested(buf, 2)
		buf = claims[i].appendCore(buf)
		buf = wire.EndNested(buf, start)
	}
	return buf
}

// SignGrant makes claims[0] the statement over claims: its signature
// covers its own claim, which names the RAR, and every claim after it
// (DESIGN.md §6.11, "Why a grant is one signature").
func SignGrant(claims []DomainApproval, key *identity.KeyPair) error {
	var payload [1024]byte
	sig, err := key.Sign(appendGrantPayload(payload[:0], claims[0].RARID, claims))
	if err != nil {
		return fmt.Errorf("signalling: signing grant: %w", err)
	}
	claims[0].Signature = sig
	return nil
}

// Statements splits a grant's approvals into its statements: each signed
// claim with the unsigned claims after it, up to the next signed one. A
// split grant carries one statement per leg. An unsigned claim before
// the first signed one is covered by none, and refused by name.
func Statements(approvals []DomainApproval) ([][]DomainApproval, error) {
	if len(approvals) == 0 {
		return nil, fmt.Errorf("signalling: grant carries no statement")
	}
	var out [][]DomainApproval
	for i := 0; i < len(approvals); {
		if len(approvals[i].Signature) == 0 {
			return nil, fmt.Errorf("signalling: claim by %s is covered by no statement", approvals[i].Domain)
		}
		j := i + 1
		for j < len(approvals) && len(approvals[j].Signature) == 0 {
			j++
		}
		out = append(out, approvals[i:j])
		i = j
	}
	return out, nil
}

// VerifyGrant checks a grant's statements against the keys keyOf knows
// by domain, its approvals decoded or not. It refuses a result that is
// not a grant, a grant without a statement, an unsigned claim no
// statement covers, and statements about different RARs; a statement whose signature does not cover its claims
// as they stand — one altered, dropped, reordered or spliced in, or a
// refusal turned into a grant — is refused naming its signer; then a
// claim from a domain keyOf does not know, or one that does not say
// granted. It checks one signature per statement: each claim's own
// signature is its onion layer's, which the destination checked.
func VerifyGrant(res *ResultPayload, keyOf func(domain string) (identity.PublicKey, bool)) error {
	if !res.Granted {
		return fmt.Errorf("signalling: result is not a grant")
	}
	approvals, err := res.DecodedApprovals()
	if err != nil {
		return err
	}
	stmts, err := Statements(approvals)
	if err != nil {
		return err
	}
	rarID := stmts[0][0].RARID
	var payload [1024]byte
	for _, claims := range stmts {
		s := &claims[0]
		if s.RARID != rarID {
			return fmt.Errorf("signalling: statement by %s is about %s, not %s", s.Domain, s.RARID, rarID)
		}
		pub, ok := keyOf(s.Domain)
		if !ok {
			return fmt.Errorf("signalling: grant statement by unknown domain %s", s.Domain)
		}
		if err := identity.Verify(pub, appendGrantPayload(payload[:0], rarID, claims), s.Signature); err != nil {
			return fmt.Errorf("signalling: grant statement by %s: %w", s.Domain, err)
		}
		for i := range claims {
			c := &claims[i]
			if _, ok := keyOf(c.Domain); !ok {
				return fmt.Errorf("signalling: grant claim from unknown domain %s", c.Domain)
			}
			if !c.Granted {
				return fmt.Errorf("signalling: claim by %s on a grant does not say granted", c.Domain)
			}
		}
	}
	return nil
}

// Encode serialises a message in the canonical binary framing.
func (m *Message) Encode() ([]byte, error) {
	return m.AppendBinary(nil), nil
}

// DecodeMessage parses one frame. A frame that does not start with
// BinMagic is malformed: there is one encoding and nothing is sniffed.
func DecodeMessage(data []byte) (*Message, error) {
	m := &Message{}
	if err := m.decodeFrame(data, "", nil); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeMessageIn is DecodeMessage for a caller that keeps the message
// and holds the frame's bytes as a string too — a substring of one copy
// of a larger record, say: text must equal string(data). Every string
// of the message is cut from text rather than copied, a result's Stack
// included: a result keeps nothing of data. A reserve's envelope and a
// stream message's records alias data as they always do. A result message and its payload come
// in one allocation.
func DecodeMessageIn(data []byte, text string) (*Message, error) {
	m := newResult(ResultPayload{})
	if err := m.decodeFrame(data, text, nil); err != nil {
		return nil, err
	}
	return m, nil
}

// newResult builds a result message carrying r, the message and its
// payload in one allocation.
func newResult(r ResultPayload) *Message {
	o := &struct {
		m Message
		r ResultPayload
	}{r: r}
	o.m = Message{Type: MsgResult, Result: &o.r}
	return &o.m
}

// NewReserveMessage wraps an envelope for the wire.
func NewReserveMessage(mode ReserveMode, env *envelope.Envelope) (*Message, error) {
	return &Message{Type: MsgReserve, Reserve: &ReservePayload{Mode: mode, env: env}}, nil
}
