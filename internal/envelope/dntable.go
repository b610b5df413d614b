package envelope

import (
	"unsafe"

	"e2eqos/internal/identity"
)

// DNTable maps the bytes of a DN to a DN string held already, so that
// the DNs of an onion decoded in place cost no copy of their own: the
// lookup is by the frame's bytes and allocates nothing. A broker fills
// it once, with the DNs of its topology's brokers, and only reads it
// after: it takes no lock, admits nothing and evicts nothing, and what
// a lookup costs does not depend on who sends the requests. A DN it
// lacks, the user's always, is copied. An entry is a pure function of
// its key, so a hit saves the copy and nothing else; the DN is checked
// against the signatures and the path as a copy would be.
type DNTable struct {
	dns map[string]identity.DN
}

// NewDNTable returns the table of dns.
func NewDNTable(dns []identity.DN) *DNTable {
	t := &DNTable{dns: make(map[string]identity.DN, len(dns))}
	for _, dn := range dns {
		t.dns[string(dn)] = dn
	}
	return t
}

// names makes the strings of the onion being opened: its DNs from the
// table or copied one by one, and its policy attributes cut from one
// copy of the outer payload, made the first time the onion turns out to
// carry any.
type names struct {
	table *DNTable
	frame []byte // the outer payload, every layer's bytes a slice of it
	text  string // string(frame), once an attribute has asked for it
}

// dn returns the DN whose bytes b are.
func (n *names) dn(b []byte) identity.DN {
	if n.table != nil {
		if dn, ok := n.table.dns[string(b)]; ok {
			return dn
		}
	}
	return identity.DN(b)
}

// attr returns b, a policy attribute's key or value, as a string: a
// substring of the onion's one text copy when b is a slice of its
// frame, and a copy of its own otherwise.
func (n *names) attr(b []byte) string {
	off := int(uintptr(unsafe.Pointer(unsafe.SliceData(b))) - uintptr(unsafe.Pointer(unsafe.SliceData(n.frame))))
	if len(b) == 0 || len(n.frame) == 0 || off < 0 || off > len(n.frame)-len(b) {
		return string(b)
	}
	if n.text == "" {
		n.text = string(n.frame)
	}
	return n.text[off : off+len(b)]
}
