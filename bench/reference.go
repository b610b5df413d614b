package main

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	mrand "math/rand"
	"sort"
	"time"
)

// The box this benchmark runs on is a shared virtual machine whose
// speed wanders by ±10 % and more over minutes: every workload's CPU
// time per cycle rises and falls together with it. A run therefore
// times, between its metered windows, a fixed reference computation
// made of what the brokers themselves spend their time on — signature
// verification, sorting, small allocations — and states how much slower
// than nominal the machine ran it. Every time-valued end-to-end metric
// is divided by that slowdown, which in a noisy hour cuts the run-to-run
// spread from 46 % to 9 % (bench/README.md has both sets of numbers).
//
// The slowdown depends on how long a piece of work is. When the
// hypervisor takes a CPU away for a few milliseconds at a time, work
// that lasts a second loses its full share, while the median of an
// operation of 0.2 ms loses nothing: most such operations fall between
// two gaps. So the reference work is timed unit by unit, and the
// slowdown that corrects a figure is read off pieces of reference work
// as long as the thing the figure times.

const (
	// referenceNominal is what one unit of reference work takes on the
	// reference box (2-vCPU Xeon 2.1 GHz) when it is quiet.
	referenceNominal = 600 * time.Microsecond
	// referenceUnits is how many units one timing runs: about a tenth
	// of a second after each one-second window.
	referenceUnits = 160
)

type reference struct {
	key    *ecdsa.PrivateKey
	digest [32]byte
	sig    []byte
	perm   []int
	blocks [][]byte
}

func newReference() (*reference, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	r := &reference{key: key, digest: sha256.Sum256([]byte("reference work")), perm: mrand.New(mrand.NewSource(1)).Perm(2048)}
	if r.sig, err = ecdsa.SignASN1(rand.Reader, key, r.digest[:]); err != nil {
		return nil, err
	}
	return r, nil
}

// unit is four P-256 verifications, a sort of 2048 integers and 64 KiB
// allocated a kibibyte at a time.
func (r *reference) unit() {
	for i := 0; i < 4; i++ {
		if !ecdsa.VerifyASN1(&r.key.PublicKey, r.digest[:], r.sig) {
			panic("bench: the reference signature does not verify")
		}
	}
	s := append([]int(nil), r.perm...)
	sort.Ints(s)
	r.blocks = r.blocks[:0]
	for i := 0; i < 64; i++ {
		r.blocks = append(r.blocks, make([]byte, 1024))
	}
}

// time runs referenceUnits units and returns how long each took.
func (r *reference) time() []time.Duration {
	units := make([]time.Duration, referenceUnits)
	t0 := time.Now()
	for i := range units {
		r.unit()
		t1 := time.Now()
		units[i], t0 = t1.Sub(t0), t1
	}
	return units
}

// slowdownAt is how much slower than nominal the machine ran reference
// work in pieces about as long as span, given the unit times of one
// timing: the median piece over its nominal length. A span longer than
// the whole timing is the whole timing.
func slowdownAt(units []time.Duration, span time.Duration) float64 {
	k := int(span / referenceNominal)
	k = max(1, min(k, len(units)))
	pieces := make([]float64, 0, len(units)/k)
	for i := 0; i+k <= len(units); i += k {
		var sum time.Duration
		for _, u := range units[i : i+k] {
			sum += u
		}
		pieces = append(pieces, float64(sum)/float64(k))
	}
	return median(pieces) / float64(referenceNominal)
}
