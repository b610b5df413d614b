package signalling

import (
	"strings"
	"sync"
	"sync/atomic"

	"e2eqos/internal/identity"
	"e2eqos/internal/obs"
)

// Answers that are read once and dropped cost nothing per exchange
// (DESIGN.md §6.6, "Who owns a frame"). A Call hands out its answer from
// a pool, and a caller done with it gives it back (Release); a served
// request is answered into a slot the server keeps for it (Peer.Reply).
// Either way the message and its payload are one object, emptied before
// it is used again: what the answer referenced — its Stack, Trace and
// PolicyInfo — belongs to whoever adopted it, and is left alone.

// answers recycles the messages Call hands out, each a result message
// and its payload in one object (newResult).
var answers = sync.Pool{New: func() any { return newResult(ResultPayload{}) }}

// answer is a result message for the demux to hand a Call: r, under id.
func answer(id uint64, r *ResultPayload) *Message {
	m := answers.Get().(*Message)
	*m.Result = *r
	m.Type, m.ID = MsgResult, id
	return m
}

// Release gives back an answer Call returned, once its caller is done
// with it: a forwarding broker after it has built its own outcome from a
// hop's answer, a cancel's caller once it has read the verdict. The next
// Call's answer may be the same message, so the caller reads nothing of
// it afterwards and releases it once. Whatever the caller copied out of
// it stays valid, strings, slices and maps alike: the message is emptied,
// what it pointed to is not. A caller that keeps its answer never
// releases it. Nil, and a message that is not a result, are ignored.
func Release(m *Message) {
	if m == nil || m.Result == nil {
		return
	}
	scrub(m)
	answers.Put(m)
}

// ReplySlot is an answer a served request owns: a result message and its
// payload, which the handler fills (Peer.Reply) and the server sends,
// then empties before it serves into the request again.
type ReplySlot struct {
	msg    Message
	result ResultPayload
}

// Reply builds r as the answer to the request being served, in the
// request's reply slot when the server keeps one (Peer.Slot) and as a
// message of its own otherwise. The handler returns it and keeps nothing
// of it: the slot's answer is valid until the server has sent it. An
// answer the handler keeps past its return — a reserve's recorded
// outcome, a batch's replay entry — is built with ErrorResult or
// OKResult instead.
func (p Peer) Reply(r ResultPayload) *Message {
	s := p.Slot
	if s == nil {
		return newResult(r)
	}
	s.result = r
	s.msg = Message{Type: MsgResult, Result: &s.result}
	return &s.msg
}

// poisoning makes scrub overwrite an answer rather than empty it, and
// poisoned counts the answers it has overwritten. The tests of the
// ownership rules turn it on: every answer given back (Release) and
// every reply slot the server has sent then reads 0xA5, so a reader
// that kept one past its owner's last use reads garbage rather than an
// empty answer, or another call's. Off, it costs a load per answer.
var (
	poisoning atomic.Bool
	poisoned  atomic.Int64
)

// poisonText and poisonWord are what a poisoned answer reads: 0xA5 bytes.
var (
	poisonText        = strings.Repeat("\xa5", 16)
	poisonWord uint64 = 0xA5A5A5A5A5A5A5A5
)

// scrub empties m, a result message, keeping only its payload: nothing
// it referenced stays reachable through it. Under PoisonAnswers every
// field reads 0xA5 instead, in strings, slices and a map of its own.
func scrub(m *Message) {
	r := m.Result
	if !poisoning.Load() {
		*r = ResultPayload{}
		*m = Message{Type: MsgResult, Result: r}
		return
	}
	poisoned.Add(1)
	word := int64(poisonWord)
	*r = ResultPayload{
		Granted:      true,
		Reason:       poisonText,
		Handle:       poisonText,
		Stack:        poisonText,
		Approvals:    []DomainApproval{{Domain: poisonText, BBDN: identity.DN(poisonText), RARID: poisonText, Handle: poisonText, Reason: poisonText, Signature: []byte(poisonText)}},
		PolicyInfo:   map[string]string{poisonText: poisonText},
		TraceID:      poisonText,
		Trace:        []obs.Span{{Domain: poisonText, BB: poisonText, Verdict: poisonText, Reason: poisonText, TotalNS: word}},
		BatchResults: []TunnelOpResult{{SubFlowID: poisonText, Reason: poisonText}},
		AckSeq:       word,
		Term:         word,
	}
	*m = Message{Type: MsgType(poisonText), ID: poisonWord, Result: r}
}

// sent empties the slot once the server has sent its answer.
func (s *ReplySlot) sent() {
	if s.msg.Result != nil {
		scrub(&s.msg)
	}
}
