package main

import (
	"bytes"
	"fmt"
	"time"
)

// quiesceTimeout bounds how long the checks wait for follower streams
// (the only asynchronous part of a cycle) to drain.
const quiesceTimeout = 5 * time.Second

// waitUntil polls cond until it holds or the instance's quiesce
// timeout has passed.
func (in *instance) waitUntil(cond func() bool) bool {
	deadline := time.Now().Add(in.quiesce)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// check verifies, after the timed window, that the program's outputs
// were right and that the run left the world as it found it. Every
// returned string is one failed check; none means correct.
func (in *instance) check() []string {
	in.verifyGrants()
	bad := in.problems
	if in.firstErr != nil {
		bad = append(bad, "first failed operation: "+in.firstErr.Error())
	}
	w := in.world

	// Nothing is stranded: every table offers what it offered before
	// the first cycle.
	if !in.waitUntil(func() bool { return len(in.headroomDiff()) == 0 }) {
		bad = append(bad, in.headroomDiff()...)
	}

	if in.wl.batch > 0 {
		for _, name := range []string{w.SourceDomain(), w.DestDomain()} {
			ep, ok := w.BBs[name].Tunnel(in.tunnelRAR)
			switch {
			case !ok:
				bad = append(bad, fmt.Sprintf("%s lost tunnel %s", name, in.tunnelRAR))
			case ep.Used() != in.standingUsed || ep.Len() != in.wl.standing:
				bad = append(bad, fmt.Sprintf("%s tunnel holds %d flows / %v, want %d / %v",
					name, ep.Len(), ep.Used(), in.wl.standing, in.standingUsed))
			}
		}
	}

	if in.wl.replicas > 1 {
		if !in.waitUntil(func() bool { return len(in.replicaDiff()) == 0 }) {
			bad = append(bad, in.replicaDiff()...)
		}
	}
	for _, name := range w.Domains {
		if err := w.BBs[name].Journal().Err(); err != nil {
			bad = append(bad, fmt.Sprintf("%s journal: %v", name, err))
		}
	}
	if in.tracer != nil {
		if n := w.CounterTotal("bb_rollbacks_abandoned_total"); n != 0 {
			bad = append(bad, fmt.Sprintf("bb_rollbacks_abandoned_total = %v, want 0", n))
		}
	}
	return bad
}

// verifyGrants checks that every grant received since the last call
// carries one valid signed approval per domain, then lets the grants
// go. The run calls it between timed windows, so the grants the caller
// holds — and with them the heap the collector paces itself by — stay
// bounded however long the run is.
func (in *instance) verifyGrants() {
	for _, res := range in.grants {
		if len(res.Approvals) != in.wl.domains {
			in.problems = append(in.problems, fmt.Sprintf("grant %s carries %d approvals, want %d", res.Handle, len(res.Approvals), in.wl.domains))
			break
		}
		if err := in.world.VerifyApprovals(res); err != nil {
			in.problems = append(in.problems, fmt.Sprintf("grant %s: %v", res.Handle, err))
			break
		}
	}
	clear(in.grants)
	in.grants = in.grants[:0]
}

func (in *instance) headroomDiff() []string {
	var diff []string
	now := in.tableHeadroom()
	for _, name := range in.world.Domains {
		if now[name] != in.available[name] {
			diff = append(diff, fmt.Sprintf("%s table offers %v over the test window, offered %v before the run", name, now[name], in.available[name]))
		}
	}
	return diff
}

// replicaDiff compares every follower's full durable state with its
// leader's.
func (in *instance) replicaDiff() []string {
	var diff []string
	w := in.world
	for _, name := range w.Domains {
		lead := w.LeaderOf(name)
		want, err := w.ReplicaBB(name, lead).StateDigest()
		if err != nil {
			diff = append(diff, fmt.Sprintf("%s leader digest: %v", name, err))
			continue
		}
		for i := 0; i < in.wl.replicas; i++ {
			if i == lead {
				continue
			}
			got, err := w.ReplicaBB(name, i).StateDigest()
			if err != nil || !bytes.Equal(got, want) {
				diff = append(diff, fmt.Sprintf("%s replica %d state differs from leader %d (err=%v)", name, i, lead, err))
			}
		}
	}
	return diff
}
