// Package transport provides the mutually authenticated, message
// oriented channels the signalling protocol runs over. Two
// implementations exist:
//
//   - Memory: an in-process network with configurable per-hop latency
//     and global message accounting, used by the experiments so that
//     latency and message-count series are deterministic.
//   - TLS: real crypto/tls over TCP with mandatory client
//     certificates, used by the daemons (cmd/bbd etc.); this is the
//     "SSLv3/TLS" channel of §6.4.
//
// Both expose the peer's authenticated identity (DN and certificate),
// which the signalling layer relies on: "Because RAR_U was received
// through a mutually authenticated channel, we assume that the BB in
// domain A has access to the user's certificate."
package transport

import (
	"errors"
	"net"
	"time"

	"e2eqos/internal/identity"
)

// ErrTimeout is returned by Send when the send deadline passes before
// the operation completes. TLS connections surface the underlying
// net.Error instead; use IsTimeout to match both.
var ErrTimeout = errors.New("transport: deadline exceeded")

// IsTimeout reports whether err is a deadline expiry from either
// transport implementation.
func IsTimeout(err error) bool {
	if errors.Is(err, ErrTimeout) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Conn is a message-oriented, mutually authenticated channel.
type Conn interface {
	// Send transmits one message.
	Send(msg []byte) error
	// Recv blocks for the next message. The returned slice belongs to
	// the caller: the transport never reuses it, writes to it or hands
	// it out again, so a decoder may keep sub-slices of it for as long
	// as the caller keeps the message (DESIGN.md §6.6, "Who owns a
	// frame").
	Recv() ([]byte, error)
	// SetSendDeadline bounds subsequent Send calls: one that would
	// block past t fails with a timeout error (IsTimeout). Recv has no
	// deadline: the multiplexed signalling client's demux goroutine
	// blocks in it indefinitely while callers bound their own sends and
	// their waits for an answer, and closing the connection is what
	// ends a Recv. The zero time clears it.
	SetSendDeadline(t time.Time) error
	// PeerDN is the authenticated identity of the remote side.
	PeerDN() identity.DN
	// PeerCertDER is the remote identity certificate (nil if the
	// transport has none, which never happens for TLS).
	PeerCertDER() []byte
	// Close tears the channel down.
	Close() error
}

// Listener accepts inbound connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	// Addr is the listen address in the transport's namespace.
	Addr() string
}

// Dialer opens outbound connections.
type Dialer interface {
	Dial(addr string) (Conn, error)
}
