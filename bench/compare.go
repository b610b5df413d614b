package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// declaration is BENCHMARK.json as far as the comparison reads it.
type declaration struct {
	EndToEnd []metricDef `json:"end_to_end"`
}

// Verdicts of one (workload, metric) pair.
const (
	verdictBetter     = "better"
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

func readRows(path string) ([]row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []row
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r row
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		rows = append(rows, r)
	}
	return rows, sc.Err()
}

// valuesOf collects, per workload, every run's value of one end-to-end
// metric.
func valuesOf(rows []row, name string) map[string][]float64 {
	out := make(map[string][]float64)
	for _, r := range rows {
		if m, ok := r.EndToEnd[name]; ok {
			out[r.Workload] = append(out[r.Workload], m.Value)
		}
	}
	return out
}

// judge compares a change's runs with the parent's for one metric.
// worse: the change's median is worse than the parent's by more than
// bound. When the parent's own run-to-run spread (quartile distance as
// a share of its median) exceeds the bound the pair is unresolved,
// unless every run of the change is better than every run of the
// parent. better: the medians differ in the good direction by more
// than that spread.
func judge(parent, change []float64, d metricDef) (verdict string, rel, spread float64) {
	pm, cm := median(parent), median(change)
	if pm == 0 {
		return verdictUnresolved, 0, 0
	}
	rel = (cm - pm) / pm // > 0: change reads higher
	worsening := rel
	if d.Better == "higher" {
		worsening = -rel
	}
	spread = quartileSpread(parent)
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if (d.Better == "higher" && c <= p) || (d.Better != "higher" && c >= p) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter && worsening < 0:
		return verdictBetter, rel, spread
	case spread > d.Bound:
		return verdictUnresolved, rel, spread
	case worsening > d.Bound:
		return verdictWorse, rel, spread
	case -worsening > spread && len(parent) > 1:
		return verdictBetter, rel, spread
	default:
		return verdictWithin, rel, spread
	}
}

// compareFiles prints one row per (workload, end-to-end metric) and
// returns how many pairs are worse. A run with a failed operation or a
// failed output check on the change's side is worse than anything.
func compareFiles(w io.Writer, specPath, parentPath, changePath string) (worse int, err error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return 0, err
	}
	var decl declaration
	if err := json.Unmarshal(data, &decl); err != nil {
		return 0, fmt.Errorf("%s: %w", specPath, err)
	}
	parent, err := readRows(parentPath)
	if err != nil {
		return 0, err
	}
	change, err := readRows(changePath)
	if err != nil {
		return 0, err
	}
	for _, r := range change {
		if r.Failed > 0 || !r.Correct {
			fmt.Fprintf(w, "%-22s %-20s %s: %d of %d operations failed, correct=%v\n", r.Workload, "(operations)", verdictWorse, r.Failed, r.Attempted, r.Correct)
			worse++
		}
	}
	fmt.Fprintf(w, "%-22s %-20s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "parent", "change", "delta", "spread", "bound", "verdict")
	for _, d := range decl.EndToEnd {
		pv, cv := valuesOf(parent, d.Name), valuesOf(change, d.Name)
		names := make([]string, 0, len(pv))
		for name := range pv {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if len(cv[name]) == 0 {
				continue
			}
			verdict, rel, spread := judge(pv[name], cv[name], d)
			if verdict == verdictWorse {
				worse++
			}
			fmt.Fprintf(w, "%-22s %-20s %12.4f %12.4f %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				name, d.Name, median(pv[name]), median(cv[name]), 100*rel, 100*spread, 100*d.Bound, verdict)
		}
	}
	return worse, nil
}
