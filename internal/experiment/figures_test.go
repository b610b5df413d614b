package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"e2eqos/internal/gara"
)

func TestRunFigure1Matrix(t *testing.T) {
	tab := RunFigure1()
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	byName := map[string][]string{}
	for _, r := range tab.Rows {
		byName[r[0]] = r
	}
	if byName["Alice"][2] != "GRANT" || byName["Alice"][3] != "DENY" {
		t.Errorf("Alice row = %v", byName["Alice"])
	}
	if byName["Bob"][2] != "DENY" {
		t.Errorf("Bob row = %v", byName["Bob"])
	}
	if byName["Charlie (physicist)"][3] != "GRANT" {
		t.Errorf("Charlie row = %v", byName["Charlie (physicist)"])
	}
	if byName["Alice (physicist)"][2] != "GRANT" || byName["Alice (physicist)"][3] != "GRANT" {
		t.Errorf("Alice-physicist row = %v", byName["Alice (physicist)"])
	}
	out := tab.Render()
	if !strings.Contains(out, "fig1") || !strings.Contains(out, "GRANT") {
		t.Error("render output malformed")
	}
	if md := tab.Markdown(); !strings.Contains(md, "| principal |") {
		t.Errorf("markdown malformed:\n%s", md)
	}
}

func TestRunFigure6Matrix(t *testing.T) {
	tab, err := RunFigure6()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Row order matches the variants in RunFigure6. Row 6 links a CPU
	// reservation Bob holds: DomainC does not count it for Alice. The
	// last two rows are an Alice with no capability who asserts ATLAS
	// membership: B admits her by group, and C takes her under 5 Mb/s
	// only, capability or not.
	wantDecision := []string{"GRANT", "DENY", "GRANT", "DENY", "DENY", "DENY", "DENY", "GRANT", "DENY"}
	wantDenier := []string{"-", "DomainC", "-", "DomainA", "DomainB", "DomainA", "DomainC", "-", "DomainC"}
	if cell := tab.Rows[6][4]; cell != "Bob's" {
		t.Errorf("row 6 cpu-resv = %s, want Bob's", cell)
	}
	for _, row := range tab.Rows[7:] {
		if row[3] != "none" {
			t.Errorf("ATLAS row capability = %s, want none (%v)", row[3], row)
		}
	}
	for i, row := range tab.Rows {
		if row[5] != wantDecision[i] {
			t.Errorf("row %d decision = %s, want %s (%v)", i, row[5], wantDecision[i], row)
		}
		if row[6] != wantDenier[i] {
			t.Errorf("row %d denier = %s, want %s (%v)", i, row[6], wantDenier[i], row)
		}
	}
}

func TestRunFigure4AttackAndProtection(t *testing.T) {
	results, tab, err := RunFigure4(1500 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || len(tab.Rows) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	attack, protected := results[0], results[1]
	// Under the attack Alice's guaranteed 10 Mb/s degrades visibly.
	if attack.AliceGoodput > 8e6 {
		t.Errorf("attack: alice goodput = %.2f Mb/s, expected < 8", attack.AliceGoodput/1e6)
	}
	if attack.DropsAtC == 0 {
		t.Error("attack: destination policer never dropped")
	}
	// Hop-by-hop keeps Alice at ~10 Mb/s with premium marking.
	if protected.AliceGoodput < 9e6 {
		t.Errorf("protected: alice goodput = %.2f Mb/s, expected ~10", protected.AliceGoodput/1e6)
	}
	if protected.AlicePremiumShare < 0.95 {
		t.Errorf("protected: premium share = %.2f", protected.AlicePremiumShare)
	}
	// The attack must hurt Alice relative to the protected run.
	if attack.AliceGoodput >= protected.AliceGoodput {
		t.Error("attack did not degrade Alice relative to hop-by-hop")
	}
}

func TestRunFigure7ChainLengths(t *testing.T) {
	tab, err := RunFigure7()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Capability certs at hop i = i + 2 (Figure 7).
	want := []string{"2", "3", "4", "5"}
	for i, row := range tab.Rows {
		if row[2] != want[i] {
			t.Errorf("hop %d capability certs = %s, want %s", i, row[2], want[i])
		}
	}
}

func TestProtocolWorldWireGrowthLinear(t *testing.T) {
	w, err := BuildProtocolWorld(6, true)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := w.Propagate(w.NewSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Per-hop growth must be roughly constant (linear overall): the
	// largest per-hop increment must not exceed 3x the smallest.
	var deltas []int
	for i := 1; i < len(samples); i++ {
		deltas = append(deltas, samples[i].WireBytes-samples[i-1].WireBytes)
	}
	min, max := deltas[0], deltas[0]
	for _, d := range deltas {
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if min <= 0 || max > 3*min {
		t.Errorf("per-hop wire growth not linear: deltas = %v", deltas)
	}
}

func TestRunTrustChainDepthPolicy(t *testing.T) {
	tab, err := RunTrustChain()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[3] != "DENY" {
			t.Errorf("hops=%s: limit N-1 should deny, got %s", row[0], row[3])
		}
		if row[4] != "ACCEPT" {
			t.Errorf("hops=%s: limit N should accept, got %s", row[0], row[4])
		}
	}
}

func TestMeasureSignallingShapes(t *testing.T) {
	// At 3ms one-way hop latency over 5 domains, concurrent must beat
	// sequential, and hop-by-hop must use fewer messages than either
	// source-domain variant needs round trips.
	seq, err := MeasureSignalling(5, 3*time.Millisecond, gara.Sequential, 1)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := MeasureSignalling(5, 3*time.Millisecond, gara.Concurrent, 1)
	if err != nil {
		t.Fatal(err)
	}
	hop, err := MeasureSignalling(5, 3*time.Millisecond, gara.HopByHop, 1)
	if err != nil {
		t.Fatal(err)
	}
	if conc.Latency >= seq.Latency {
		t.Errorf("concurrent (%v) not faster than sequential (%v)", conc.Latency, seq.Latency)
	}
	// The paper's claim: parallel source-domain signalling can beat
	// hop-by-hop, which serialises one RTT per domain.
	if conc.Latency >= hop.Latency {
		t.Errorf("concurrent (%v) not faster than hop-by-hop (%v)", conc.Latency, hop.Latency)
	}
	// Message economics: hop-by-hop sends 2 messages per inter-BB hop
	// plus the user exchange; source-domain sends 2 per domain.
	if hop.Messages != 2*5 {
		t.Errorf("hop-by-hop messages = %d, want 10", hop.Messages)
	}
	if seq.Messages != 2*5 {
		t.Errorf("sequential messages = %d, want 10", seq.Messages)
	}
}

func TestRunTrustScalingTable(t *testing.T) {
	tab := RunTrustScaling()
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	row := tab.Rows[4]
	if row[0] != "100" || row[1] != "5" {
		t.Fatalf("row 4 = %v, want 100 users over 5 domains", row)
	}
	if row[2] != "500" { // 100 users x 5 domains
		t.Errorf("source-domain pairs = %s", row[2])
	}
	if row[3] != "105" { // 5 + 100
		t.Errorf("coordinator pairs = %s", row[3])
	}
	if row[4] != "104" { // 4 SLAs + 100 home enrolments
		t.Errorf("hop-by-hop pairs = %s", row[4])
	}
}

func TestRunCoReservationTable(t *testing.T) {
	tab, err := RunCoReservation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][3] != "GRANTED" {
		t.Errorf("both-fit row = %v", tab.Rows[0])
	}
	if tab.Rows[1][3] != "DENIED (cpu)" {
		t.Errorf("cpu-exhausted row = %v", tab.Rows[1])
	}
	if tab.Rows[2][3] != "DENIED (network)" {
		t.Errorf("network-exhausted row = %v", tab.Rows[2])
	}
	// All-or-nothing: CPU freed after the network denial.
	if tab.Rows[2][4] != "8" {
		t.Errorf("cpu free after network denial = %s, want 8", tab.Rows[2][4])
	}
}

func TestMeasureTunnelAdvantage(t *testing.T) {
	// MeasureTunnel fails unless every sub-flow is granted.
	s, err := MeasureTunnel(8, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.TunnelMsgs >= s.PerFlowMsgs {
		t.Errorf("tunnel msgs %d >= per-flow msgs %d for 8 flows", s.TunnelMsgs, s.PerFlowMsgs)
	}
}

func TestRunKeyDistributionSavings(t *testing.T) {
	tab, err := RunKeyDistribution()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range tab.Rows {
		var inline, lean int
		if _, err := fmt.Sscanf(row[1], "%d", &inline); err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Sscanf(row[2], "%d", &lean); err != nil {
			t.Fatal(err)
		}
		if lean >= inline {
			t.Errorf("hops=%s: repository mode (%d) not smaller than inline (%d)", row[0], lean, inline)
		}
		if row[4] == "0" {
			t.Errorf("hops=%s: repository never consulted", row[0])
		}
	}
}

func TestRunBillingChain(t *testing.T) {
	tab, err := RunBilling()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 invoices", len(tab.Rows))
	}
	if !strings.HasPrefix(tab.Rows[0][0], "DomainC -> DomainB") {
		t.Errorf("first invoice = %v", tab.Rows[0])
	}
	if !strings.Contains(tab.Rows[2][0], "Alice") {
		t.Errorf("final invoice must bill the user: %v", tab.Rows[2])
	}
}

func TestRunFigure4SweepMonotone(t *testing.T) {
	tab, err := RunFigure4Sweep(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var goodputs []float64
	for _, row := range tab.Rows {
		var g float64
		if _, err := fmt.Sscanf(row[1], "%f Mb/s", &g); err != nil {
			t.Fatal(err)
		}
		goodputs = append(goodputs, g)
	}
	// Damage must grow with attacker load.
	for i := 1; i < len(goodputs); i++ {
		if goodputs[i] >= goodputs[i-1] {
			t.Errorf("alice goodput not monotone in attacker load: %v", goodputs)
		}
	}
	// Light attack barely hurts; heavy attack is devastating.
	if goodputs[0] < 6 {
		t.Errorf("2Mb/s attacker already destroyed the flow: %v", goodputs)
	}
	if goodputs[4] > 4 {
		t.Errorf("40Mb/s attacker insufficiently harmful: %v", goodputs)
	}
}

// TestExperimentRendersPinned pins what cmd/experiments prints for each
// experiment at its default flags, as the sha256 of the output: each
// digest is `go run ./cmd/experiments -exp <name> | sha256sum`. Every
// source seeds its jitter from its flow id, so the renders are
// reproducible, and one that moves by a byte is a change in behaviour.
func TestExperimentRendersPinned(t *testing.T) {
	const duration = 2 * time.Second // cmd/experiments' -duration default
	one := func(tab *Table, err error) ([]*Table, error) { return []*Table{tab}, err }
	cases := []struct {
		exp    string
		digest string
		run    func() ([]*Table, error)
	}{
		{"fig1", "5d3e579786d2a87ab51ecbbac0db75acc34e96168c7326cdd76ddad037e00bd2", func() ([]*Table, error) {
			return []*Table{RunFigure1()}, nil
		}},
		{"fig4", "ca7819778612c41900061280d3ec7407d3fce6cc02431a1b8787ef1622d4ccca", func() ([]*Table, error) {
			_, tab, err := RunFigure4(duration)
			if err != nil {
				return nil, err
			}
			sweep, err := RunFigure4Sweep(duration)
			return []*Table{tab, sweep}, err
		}},
		{"diffserv", "68696f524b9b58cf41f565dde7038970d9bb29fe6a38ecbf6ce7ae78eb8caf35", func() ([]*Table, error) {
			return one(RunDiffServChain(duration))
		}},
		{"billing", "765146dec72d4d3130ab9702cae052e01be16cc50920b4f525481afbb2cf323a", func() ([]*Table, error) {
			return one(RunBilling())
		}},
		{"multipath", "942ef01464bc58e6f481268dd914415bef34b804da7c21dbacf655814771b44c", func() ([]*Table, error) {
			return one(RunMultipathExp())
		}},
	}
	for _, c := range cases {
		t.Run(c.exp, func(t *testing.T) {
			tabs, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, tab := range tabs {
				io.WriteString(h, tab.Render()+"\n")
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.digest {
				t.Errorf("-exp %s renders to sha256 %s, pinned %s", c.exp, got, c.digest)
			}
		})
	}
}

func TestRunDiffServChainGuarantee(t *testing.T) {
	tab, err := RunDiffServChain(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		var prem, cross float64
		if _, err := fmt.Sscanf(row[1], "%f Mb/s", &prem); err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Sscanf(row[3], "%f Mb/s", &cross); err != nil {
			t.Fatal(err)
		}
		// The 10 Mb/s guarantee holds at every chain length...
		if prem < 9 {
			t.Errorf("domains=%s: premium goodput %.2f < 9 Mb/s", row[0], prem)
		}
		// ...while the 40 Mb/s best-effort offer collapses to leftovers.
		if cross > 25 {
			t.Errorf("domains=%s: best effort %.2f exceeds leftover capacity", row[0], cross)
		}
	}
}
