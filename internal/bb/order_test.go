package bb_test

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"e2eqos/internal/bb"
	"e2eqos/internal/experiment"
	"e2eqos/internal/resv"
	"e2eqos/internal/signalling"
	"e2eqos/internal/units"
)

// checkJournalOrder closes w and holds every journal under its state
// directory root to the order its objects applied their records in
// (bb.JournalOrder): replay applies each record at once and reorders
// nothing.
func checkJournalOrder(t *testing.T, w *experiment.World, root string) {
	t.Helper()
	w.Close()
	journals := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.Name() != "wal.log" {
			return err
		}
		journals++
		bad, err := bb.JournalOrder(filepath.Dir(path))
		if err != nil {
			return err
		}
		if len(bad) > 0 {
			t.Errorf("%s: %d records out of apply order, the first %v", path, len(bad), bad[:min(len(bad), 3)])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if journals == 0 {
		t.Fatalf("no journal under %s", root)
	}
}

// TestJournalOrderFollowsApplyOrder: eight goroutines send 200 four-op
// batches each through one journaled tunnel while, on the destination,
// two more admit into its table, one cancels what they admitted and one
// compacts past every window they book, all journaling into the same
// WAL. Each end's journal must hold every tunnel op in generation order,
// after the tunnel's establishment, and no compact ahead of the admit of
// a handle it removed.
func TestJournalOrderFollowsApplyOrder(t *testing.T) {
	state := t.TempDir()
	w, u, rarID := buildTunnelWorldWith(t, experiment.WorldConfig{
		NumDomains: 2, CallTimeout: 5 * time.Second, StateDir: state, FsyncPolicy: "never",
	}, 100*units.Mbps)
	src, tbl := w.BBs[w.SourceDomain()], w.BBs[w.DestDomain()].Table()
	const senders, batches, admits = 8, 200, 1000

	errs := make(chan error, senders+2)
	var batchers, admitters, table sync.WaitGroup
	for g := range senders {
		batchers.Add(1)
		go func() {
			defer batchers.Done()
			id := func(i, k int) string { return fmt.Sprintf("g%d-%d-%d", g, i, k) }
			for i := range batches {
				ops := []signalling.TunnelOp{
					{Action: signalling.OpAlloc, SubFlowID: id(i, 0), Bandwidth: int64(units.Mbps)},
					{Action: signalling.OpAlloc, SubFlowID: id(i, 1), Bandwidth: int64(units.Mbps)},
					{Action: signalling.OpRelease, SubFlowID: id(i-1, 0)},
					{Action: signalling.OpRelease, SubFlowID: id(i-1, 1)},
				}
				if _, err := src.TunnelBatch(rarID, ops, u.DN()); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	handles := make(chan string, admits)
	for range 2 {
		admitters.Add(1)
		go func() {
			defer admitters.Done()
			for range admits {
				r, err := tbl.Admit(resv.AdmitRequest{Bandwidth: 100 * units.Kbps, Window: units.NewWindow(time.Now(), time.Minute)})
				if err != nil {
					errs <- err
					return
				}
				handles <- r.Handle
			}
		}()
	}
	done := make(chan struct{})
	table.Add(2)
	go func() {
		defer table.Done()
		for h := range handles {
			_ = tbl.Cancel(h) // compacted first, or not
		}
	}()
	go func() {
		defer table.Done()
		for {
			select {
			case <-done:
				return
			default:
				tbl.Compact(time.Now().Add(time.Hour))
			}
		}
	}()
	batchers.Wait()
	admitters.Wait()
	close(handles)
	close(done)
	table.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkJournalOrder(t, w, state)
}
