package experiment

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"e2eqos/internal/identity"
	"e2eqos/internal/policy"
	"e2eqos/internal/units"
)

// chainUser builds a linear world of n domains and a user in its first.
func chainUser(t *testing.T, n int, cfg WorldConfig) (*World, *User) {
	t.Helper()
	cfg.NumDomains = n
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	return w, u
}

// reserveAndCancel reserves 1 Mb/s end to end and cancels it.
func reserveAndCancel(w *World, u *User) error {
	spec := u.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
	res, err := u.ReserveE2E(spec)
	if err != nil {
		return err
	}
	if !res.Granted {
		return fmt.Errorf("reserve %s denied: %s", spec.RARID, res.Reason)
	}
	return u.Cancel(u.Domain, spec.RARID)
}

// reserveCosts pins what one reserve and its cancel cost across an
// N-domain chain, one row per N. Each column's reason:
//
//   - signed: each broker signs once (a forwarding hop the layer it
//     seals onward, the destination the grant's one statement) and the
//     user signs its layer, N+1 in all, whatever the policy
//     (DESIGN.md §6.11).
//   - checked, vouched: the source checks the user's layer, each transit
//     hop the layer its neighbour signed, and takes the layers below it
//     on that neighbour's word; the destination checks all N: 2N−1
//     checked, (N−1)(N−2)/2 vouched (§6.11 "Who checks which layer").
//     A policy that names the user makes every hop audit the whole
//     onion, hop k checking k+1 layers: N(N+1)/2 checked, none vouched.
//   - msgs: the user calls the source and each forwarding hop calls its
//     neighbour, once to reserve and once to cancel, and every call is
//     answered: 4N messages.
//   - appends: each broker journals its admission and the RAR's outcome,
//     then its release and the RAR's cancel, each synced on its own
//     under FsyncPolicy "always": 4 records and 4 fsyncs a domain.
//   - objects, kib: a hop verifies the onion per request, not per layer,
//     passes its grant upstream as the bytes it came in, seals into a
//     recycled buffer and takes the brokers' DNs from a DN table (§6.6
//     "Who owns a frame", §6.11). It decodes the outer envelope into the
//     served request, builds the message it forwards on its stack, gives
//     back every answer it reads and drops, and answers a cancel from
//     the request's reply slot: 19 objects a domain wherever it sits,
//     plus 17. Bytes grow with the square of the path, as each layer
//     carries the onion below it, so they get a bound per N.
//
// Four tests read the table, a group of columns each:
// TestReserveSignatureCheckAllocationBound signed, checked and vouched,
// TestReserveCostAllocationBound msgs, appends and fsyncs,
// TestReserveChainAllocationBound objects and
// TestReserveChainByteAllocationBound kib. The integer columns also run
// under -race; objects and kib skip there. Per-broker counts are checked
// broker by broker. The history of these counts is CHANGES.md's.
var reserveCosts = []struct {
	n                int
	signed           int
	checked, vouched int
	checkedNamed     int
	msgs, appends    int
	objects          float64
	kib              float64
}{
	{n: 3, signed: 4, checked: 5, vouched: 1, checkedNamed: 6, msgs: 12, appends: 12, objects: 74, kib: 12},
	{n: 5, signed: 6, checked: 9, vouched: 6, checkedNamed: 15, msgs: 20, appends: 20, objects: 112, kib: 23},
	{n: 8, signed: 9, checked: 15, vouched: 21, checkedNamed: 36, msgs: 32, appends: 32, objects: 169, kib: 48},
}

// objectsPerDomain and objectsBase are the objects column's law: a
// reserve and its cancel across N domains allocate
// objectsPerDomain·N + objectsBase objects.
const objectsPerDomain, objectsBase = 19, 17

// cell is one column's reading against its pinned value.
type cell struct {
	col       string
	got, want int
}

// reserveOnce builds an n-domain chain under cfg, every domain's policy
// admitting the user alone by name if namesUser, and reserves and
// cancels once.
func reserveOnce(t *testing.T, n int, namesUser bool, cfg WorldConfig) *World {
	t.Helper()
	if namesUser {
		cfg.Policies = map[string]*policy.Policy{}
		for i := 0; i < n; i++ {
			cfg.Policies[fmt.Sprintf("Domain%d", i)] = policy.MustParse("alice-only",
				fmt.Sprintf("allow if user = %q and bw <= avail\ndeny", identity.NewDN("Grid", "Domain0", "alice")))
		}
	}
	w, u := chainUser(t, n, cfg)
	if err := reserveAndCancel(w, u); err != nil {
		t.Fatalf("N=%d, names user %v: %v", n, namesUser, err)
	}
	return w
}

// TestReserveSignatureCheckAllocationBound checks reserveCosts' signed,
// checked and vouched columns, per broker as each one's
// bb_signatures_made_total, bb_layer_signatures_verified_total and
// bb_layers_vouched_total count them, and summed, under the default
// policy and one that names the user.
func TestReserveSignatureCheckAllocationBound(t *testing.T) {
	for _, row := range reserveCosts {
		n := row.n
		for _, namesUser := range []bool{false, true} {
			w := reserveOnce(t, n, namesUser, WorldConfig{EnableObs: true})
			checked, vouched := row.checked, row.vouched
			if namesUser {
				checked, vouched = row.checkedNamed, 0
			}
			sum := map[string]int{"signed": 1} // the user signed its own layer
			for k, d := range w.Domains {
				wantChecks, wantVouched := k+1, 0
				switch {
				case namesUser:
				case k == n-1:
					wantChecks = n
				default:
					wantChecks, wantVouched = 1, k
				}
				m := w.Metrics[d].Snapshot()
				for _, c := range []cell{
					{"signed", int(m["bb_signatures_made_total"]), 1},
					{"checked", int(m["bb_layer_signatures_verified_total"]), wantChecks},
					{"vouched", int(m["bb_layers_vouched_total"]), wantVouched},
				} {
					sum[c.col] += c.got
					if c.got != c.want {
						t.Errorf("N=%d, names user %v: %s at %s = %d, want %d", n, namesUser, c.col, d, c.got, c.want)
					}
				}
			}
			for _, c := range []cell{
				{"signed", sum["signed"], row.signed},
				{"checked", sum["checked"], checked},
				{"vouched", sum["vouched"], vouched},
			} {
				if c.got != c.want {
					t.Errorf("N=%d, names user %v: %s = %d, want %d", n, namesUser, c.col, c.got, c.want)
				}
			}
		}
	}
}

// TestReserveCostAllocationBound checks reserveCosts' msgs, appends and
// fsyncs columns: the messages on the wire, and each broker's journal
// records and fsyncs under FsyncPolicy "always", broker by broker and
// summed.
func TestReserveCostAllocationBound(t *testing.T) {
	for _, row := range reserveCosts {
		n := row.n
		w := reserveOnce(t, n, false, WorldConfig{StateDir: t.TempDir(), FsyncPolicy: "always"})
		sum := map[string]int{}
		for _, d := range w.Domains {
			js := w.BBs[d].Journal().Stats()
			for _, c := range []cell{
				{"appends", int(js.Appends), 4},
				{"fsyncs", int(js.Fsyncs), 4},
			} {
				sum[c.col] += c.got
				if c.got != c.want {
					t.Errorf("N=%d: %s at %s = %d, want %d", n, c.col, d, c.got, c.want)
				}
			}
		}
		for _, c := range []cell{
			{"msgs", int(w.Net.Messages()), row.msgs},
			{"appends", sum["appends"], row.appends},
			{"fsyncs", sum["fsyncs"], row.appends},
		} {
			if c.got != c.want {
				t.Errorf("N=%d: %s = %d, want %d", n, c.col, c.got, c.want)
			}
		}
	}
}

// TestReserveChainAllocationBound checks reserveCosts' objects column:
// exact, in objects allocated in the whole process.
func TestReserveChainAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, row := range reserveCosts {
		objects := reserveCycleObjects(t, row.n)
		t.Logf("N=%d: %.0f objects", row.n, objects)
		if objects != row.objects {
			t.Errorf("N=%d: objects = %.0f, want %.0f", row.n, objects, row.objects)
		}
	}
}

// TestReserveAllocationBoundPerDomain: each domain a reserve crosses
// costs the same objects wherever on the path it sits, so the objects
// column's law holds between its rows too, at N = 4 and 6.
func TestReserveAllocationBoundPerDomain(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, row := range reserveCosts {
		if want := float64(objectsPerDomain*row.n + objectsBase); row.objects != want {
			t.Errorf("N=%d: the objects column reads %.0f, its law %.0f", row.n, row.objects, want)
		}
	}
	for _, n := range []int{4, 6} {
		objects := reserveCycleObjects(t, n)
		t.Logf("N=%d: %.0f objects", n, objects)
		if want := float64(objectsPerDomain*n + objectsBase); objects != want {
			t.Errorf("N=%d: objects = %.0f, want %.0f", n, objects, want)
		}
	}
}

// TestReserveChainByteAllocationBound checks reserveCosts' kib column:
// at most that many KiB allocated in the whole process.
func TestReserveChainByteAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, row := range reserveCosts {
		cycle := reserveCycle(t, row.n)
		kib := func() float64 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			const runs = 200
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				cycle()
			}
			runtime.ReadMemStats(&after)
			return float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
		}()
		t.Logf("N=%d: %.1f KiB", row.n, kib)
		if kib > row.kib {
			t.Errorf("N=%d: kib = %.1f, want at most %.0f", row.n, kib, row.kib)
		}
	}
}

// reserveCycle is one reserve and its cancel across n domains, on the
// in-memory transport, warmed by 20 cycles at GOMAXPROCS 2: warm
// connections, certificate caches and DN tables.
func reserveCycle(t *testing.T, n int) func() {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	w, u := chainUser(t, n, WorldConfig{})
	cycle := func() {
		if err := reserveAndCancel(w, u); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		cycle()
	}
	return cycle
}

// reserveCycleObjects measures reserveCycle in objects allocated in the
// whole process over 200 runs, the collector held off: a collection
// empties the sync.Pools the brokers and the wire recycle through, and
// refilling them costs a fraction of an object a cycle that follows
// the size of the heap the test runs beside, not the path.
func reserveCycleObjects(t *testing.T, n int) float64 {
	t.Helper()
	cycle := reserveCycle(t, n)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(200, cycle)
}
