package core

import (
	"fmt"
	"testing"
	"time"

	"e2eqos/internal/identity"
)

// mapDirectory is a KeyDirectory backed by a map, standing in for the
// certrepo package (which cannot be imported here without a cycle in
// its own tests).
type mapDirectory struct {
	keys map[identity.DN]identity.PublicKey
}

func (d *mapDirectory) LookupKey(dn identity.DN) (identity.PublicKey, error) {
	pub, ok := d.keys[dn]
	if !ok {
		return nil, fmt.Errorf("no key for %s", dn)
	}
	return pub, nil
}

// TestDirectoryKeyDistribution exercises §6.4's out-of-band key
// distribution alternative: brokers omit upstream certificates from
// the envelopes; verifiers resolve signer keys through a trusted
// directory instead.
func TestDirectoryKeyDistribution(t *testing.T) {
	w := buildWorld(t, false)
	dir := &mapDirectory{keys: map[identity.DN]identity.PublicKey{
		w.alice.Key.DN: w.alice.Key.Public(),
	}}
	for i, broker := range w.brokers {
		broker.OmitIntroducerCerts = true
		broker.Directory = dir
		dir.keys[broker.DN()] = broker.Key.Public()
		_ = i
	}
	spec := testSpec(w.alice.Key.DN)
	vC, rarB := propagate(t, w, spec)
	if vC.Spec.RARID != spec.RARID {
		t.Fatal("spec corrupted")
	}
	// The lean envelopes must be smaller than the inline-cert ones.
	w2 := buildWorld(t, false)
	spec2 := testSpec(w2.alice.Key.DN)
	_, rarInline := propagate(t, w2, spec2)
	if rarB.WireSize() >= rarInline.WireSize() {
		t.Errorf("directory mode wire size %d >= inline mode %d", rarB.WireSize(), rarInline.WireSize())
	}
}

// TestDirectoryMissingKeyFails ensures that when neither an inline
// certificate nor a directory entry is available, verification fails
// closed.
func TestDirectoryMissingKeyFails(t *testing.T) {
	w := buildWorld(t, false)
	for _, broker := range w.brokers {
		broker.OmitIntroducerCerts = true
		broker.Directory = &mapDirectory{keys: map[identity.DN]identity.PublicKey{}}
	}
	spec := testSpec(w.alice.Key.DN)
	now := time.Now()
	rarU, err := w.alice.BuildRAR(spec, w.certs[0])
	if err != nil {
		t.Fatal(err)
	}
	vA, err := w.brokers[0].Verify(rarU, w.alice.Key.DN, w.alice.Cert.DER, now)
	if err != nil {
		t.Fatal(err)
	}
	rarA, err := w.brokers[0].Extend(rarU, w.alice.Cert.DER, vA, w.certs[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	// B can verify A (channel peer) but not the user (no cert, empty
	// directory).
	if _, err := w.brokers[1].Verify(rarA, w.brokers[0].DN(), w.certs[0].DER, now); err == nil {
		t.Fatal("verification succeeded without any key source")
	}
}

// TestDirectoryNotConsultedWhenCertsInline confirms the default mode
// never touches the directory.
func TestDirectoryNotConsultedWhenCertsInline(t *testing.T) {
	w := buildWorld(t, false)
	poison := &mapDirectory{keys: nil} // would fail every lookup
	for _, broker := range w.brokers {
		broker.Directory = poison
	}
	spec := testSpec(w.alice.Key.DN)
	if vC, _ := propagate(t, w, spec); vC.Spec.RARID != spec.RARID {
		t.Fatal("inline propagation failed")
	}
}

// TestDirectoryKeysAreAuditedInTransit: a vouching hop takes inner
// layers on its neighbour's signature because the neighbour introduced
// their keys and could have forged them anyway. Keys from a Directory
// are not the neighbour's to forge, so a broker with one checks every
// layer even of a request bound past it, and refuses a user whose key
// the directory lacks.
func TestDirectoryKeysAreAuditedInTransit(t *testing.T) {
	w := buildWorld(t, false)
	dir := &mapDirectory{keys: map[identity.DN]identity.PublicKey{
		w.alice.Key.DN: w.alice.Key.Public(),
	}}
	for _, broker := range w.brokers {
		broker.OmitIntroducerCerts = true
		broker.Directory = dir
		dir.keys[broker.DN()] = broker.Key.Public()
	}
	spec := testSpec(w.alice.Key.DN)
	spec.DestDomain = "DomainD"
	now := time.Now()
	rarB := rarForC(t, w, spec, now)
	v, err := w.brokers[2].Receive(rarB, w.brokers[1].DN(), w.certs[1].DER, now, "DomainC")
	if err != nil {
		t.Fatal(err)
	}
	if v.Signatures != 3 || v.Vouched != 0 {
		t.Errorf("transit broker with a directory checked %d layers and vouched for %d, want 3 and 0", v.Signatures, v.Vouched)
	}
	delete(dir.keys, w.alice.Key.DN)
	if _, err := w.brokers[2].Receive(rarB, w.brokers[1].DN(), w.certs[1].DER, now, "DomainC"); err == nil {
		t.Fatal("transit broker with a directory took a user layer whose key the directory lacks")
	}
}
