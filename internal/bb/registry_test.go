package bb

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"e2eqos/internal/signalling"
)

// holds renders what a registry lists: key@epoch=value, in listing order.
func holds(r *registry[string]) string {
	var out []string
	for _, e := range r.list() {
		out = append(out, fmt.Sprintf("%s@%d=%s", e.key, e.epoch, e.val))
	}
	return strings.Join(out, " ")
}

// TestRegistry: the rules of the one keyed type, each row one step on a
// fresh registry after the setup the row does first. Route entries,
// tunnel registrations and batch replay entries all live by these.
func TestRegistry(t *testing.T) {
	for _, row := range []struct {
		name string
		step func(r *registry[string]) bool // the step under test
		want bool                           // what it reports
		then string                         // what the registry holds after it
	}{
		{"a duplicate begin is refused", func(r *registry[string]) bool {
			e, _ := r.begin("k", func() int64 { return 1 })
			r.settle(e, "first", nil)
			_, dup := r.begin("k", func() int64 { return 2 })
			return dup
		}, true, "k@1=first"},
		{"a newer epoch replaces", func(r *registry[string]) bool {
			r.register("k", 1, "old", nil)
			return r.register("k", 2, "new", nil)
		}, true, "k@2=new"},
		{"an equal epoch keeps the existing entry", func(r *registry[string]) bool {
			r.register("k", 2, "here", nil)
			return r.register("k", 2, "again", nil)
		}, false, "k@2=here"},
		{"an older epoch keeps the existing entry", func(r *registry[string]) bool {
			r.register("k", 2, "live", nil)
			return r.register("k", 1, "stale", nil)
		}, false, "k@2=live"},
		{"a stale removal is a no-op", func(r *registry[string]) bool {
			r.register("k", 2, "fresh", nil)
			_, ok := r.remove("k", 1)
			return ok
		}, false, "k@2=fresh"},
		{"an exact-epoch removal evicts", func(r *registry[string]) bool {
			r.register("k", 2, "fresh", nil)
			e, ok := r.remove("k", 2)
			return ok && e.val == "fresh"
		}, true, ""},
		{"a registration is found at its own epoch only", func(r *registry[string]) bool {
			r.register("k", 2, "v", nil)
			_, stale := r.at("k", 1)
			e, exact := r.at("k", 2)
			return !stale && exact && e.val == "v"
		}, true, "k@2=v"},
		{"the listing is sorted and leaves pending entries out", func(r *registry[string]) bool {
			for i, k := range []string{"c", "a", "b"} {
				r.register(k, int64(i+1), strings.ToUpper(k), nil)
			}
			_, dup := r.begin("aa", nil)
			return !dup && r.size() == 4
		}, true, "a@2=A b@3=B c@1=C"},
		{"reset empties in place", func(r *registry[string]) bool {
			r.register("k", 1, "v", nil)
			r.reset()
			return r.size() == 0
		}, true, ""},
	} {
		t.Run(row.name, func(t *testing.T) {
			r := newRegistry[string]()
			if got := row.step(r); got != row.want {
				t.Errorf("step reports %t, want %t", got, row.want)
			}
			if got := holds(r); got != row.then {
				t.Errorf("holds %q, want %q", got, row.then)
			}
		})
	}

	t.Run("a duplicate begin racing the first copy waits and gets the identical outcome", func(t *testing.T) {
		r := newRegistry[string]()
		var minted atomic.Int64
		mint := func() int64 { return minted.Add(1) }
		first, dup := r.begin("k", mint)
		if dup || first.epoch != 1 {
			t.Fatalf("first begin: dup=%t epoch=%d, want a fresh entry at epoch 1", dup, first.epoch)
		}
		const dups = 8
		var begun, wg sync.WaitGroup
		var released atomic.Bool
		got := make([]*signalling.Message, dups)
		for i := range dups {
			begun.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				e, dup := r.begin("k", mint)
				begun.Done()
				if !dup || e != first {
					t.Errorf("duplicate begin: dup=%t, same entry %t", dup, e == first)
					return
				}
				got[i] = e.replay()
				if !released.Load() {
					t.Errorf("duplicate %d answered before the first copy settled", i)
				}
			}()
		}
		begun.Wait()
		if h := holds(r); h != "" {
			t.Errorf("a pending entry is listed: %q", h)
		}
		outcome := &signalling.Message{Type: signalling.MsgResult, ID: 7, Result: &signalling.ResultPayload{Granted: true, Handle: "h"}}
		r.settle(first, "settled", outcome)
		released.Store(true)
		close(first.done)
		wg.Wait()
		for i, resp := range got {
			if resp == outcome || !reflect.DeepEqual(resp, outcome) {
				t.Errorf("duplicate %d got %+v (same pointer %t), want a copy of %+v", i, resp, resp == outcome, outcome)
			}
		}
		if minted.Load() != 1 {
			t.Errorf("minted %d epochs, want 1: a duplicate takes none", minted.Load())
		}
		if h := holds(r); h != "k@1=settled" {
			t.Errorf("holds %q once settled, want k@1=settled", h)
		}
	})
}
