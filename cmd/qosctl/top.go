package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"e2eqos/internal/obs"
)

// runTop polls one or more brokers' admin /top endpoints and renders
// the live view: counter rates, gauge levels, and latency quantiles.
// The admin endpoint is plain HTTP (it binds loopback by convention),
// so no user credentials are needed.
func runTop(args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	admin := fs.String("admin", "", "comma-separated broker admin addresses, e.g. 127.0.0.1:7101 (required)")
	interval := fs.Duration("interval", 2*time.Second, "delay between polls")
	polls := fs.Int("n", 1, "number of views to print after the baseline poll (0 = until interrupted)")
	_ = fs.Parse(args)
	if *admin == "" {
		die("top: -admin is required")
	}
	pollTop(os.Stdout, strings.Split(*admin, ","), *interval, *polls)
}

// pollTop takes a baseline snapshot of every broker, then prints polls
// views (0: until interrupted), each one interval after the last. A
// broker serves levels; each view's rates are the growth since that
// broker's previous snapshot, so they are right at any interval.
func pollTop(w io.Writer, addrs []string, interval time.Duration, polls int) {
	client := &http.Client{Timeout: 5 * time.Second}
	prev := make(map[string]*obs.TopSnapshot, len(addrs))
	for i := 0; polls == 0 || i <= polls; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		if i > 1 {
			fmt.Fprintln(w)
		}
		for _, addr := range addrs {
			addr = strings.TrimSpace(addr)
			snap, err := fetchTop(client, addr)
			if err != nil {
				fmt.Fprintf(w, "%s: %v\n", addr, err)
				continue
			}
			if i > 0 {
				renderTop(w, addr, prev[addr], snap)
			}
			prev[addr] = snap
		}
	}
}

func fetchTop(client *http.Client, addr string) (*obs.TopSnapshot, error) {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	resp, err := client.Get(url + "/top")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /top: %s", resp.Status)
	}
	var snap obs.TopSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// topRates splits cur's series into counter rates and gauge levels. A
// _total series is a counter: its rate is its growth since prev over
// the time between the two snapshots, and only a counter that grew has
// one. A counter below its previous level belongs to a restarted
// broker and counts from zero. _count and _sum are the histograms'
// scalars, which the quantiles carry. With no prev there are no rates.
func topRates(prev, cur *obs.TopSnapshot) (rates, gauges map[string]float64) {
	rates, gauges = make(map[string]float64), make(map[string]float64)
	for name, v := range cur.Values {
		switch {
		case strings.HasSuffix(name, "_total"):
			if prev == nil || cur.TimeNS <= prev.TimeNS {
				continue
			}
			if last := prev.Values[name]; v >= last {
				v -= last
			}
			if v > 0 {
				rates[name] = v / time.Duration(cur.TimeNS-prev.TimeNS).Seconds()
			}
		case strings.HasSuffix(name, "_count") || strings.HasSuffix(name, "_sum"):
		default:
			gauges[name] = v
		}
	}
	return rates, gauges
}

func renderTop(w io.Writer, addr string, prev, cur *obs.TopSnapshot) {
	fmt.Fprintf(w, "%s  [%s]  %s\n", cur.Domain, addr, time.Unix(0, cur.TimeNS).UTC().Format("15:04:05Z"))
	rates, gauges := topRates(prev, cur)
	for _, name := range obs.SortedKeys(rates) {
		fmt.Fprintf(w, "  %-42s %12.1f/s\n", name, rates[name])
	}
	for _, name := range obs.SortedKeys(gauges) {
		fmt.Fprintf(w, "  %-42s %12g\n", name, gauges[name])
	}
	for _, name := range obs.SortedKeys(cur.Quantiles) {
		q := cur.Quantiles[name]
		if q.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-42s n=%-8d p50=%-10s p99=%-10s p999=%s\n",
			name, q.Count, fmtSeconds(q.P50), fmtSeconds(q.P99), fmtSeconds(q.P999))
	}
}

// fmtSeconds renders a latency quantile (in seconds) as a duration.
func fmtSeconds(v float64) string {
	return time.Duration(v * float64(time.Second)).Round(100 * time.Nanosecond).String()
}
