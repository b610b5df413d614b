package main

import (
	"io"
	"strings"
	"testing"
)

// TestParseFlagsRefusesByName: a count below one, a zero or negative
// duration or deadline, a negative latency and an experiment no step
// names are refused at parse time, and the refusal names the flag, instead of being replaced by a
// default somewhere inside the experiment.
func TestParseFlagsRefusesByName(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string // the flag the refusal names; "" means accepted
	}{
		{nil, ""},
		{[]string{"-exp", "fig6", "-latency", "0"}, ""},
		{[]string{"-fleet-users", "1", "-fault-trials", "1", "-trials", "1"}, ""},
		{[]string{"-fleet-users", "0"}, "-fleet-users"},
		{[]string{"-fault-trials", "0"}, "-fault-trials"},
		{[]string{"-trials", "0"}, "-trials"},
		{[]string{"-trials", "-2"}, "-trials"},
		{[]string{"-latency", "-1ms"}, "-latency"},
		{[]string{"-duration", "0s"}, "-duration"},
		{[]string{"-call-timeout", "-5ms"}, "-call-timeout"},
		{[]string{"-fleet-users", "many"}, "-fleet-users"},
		{[]string{"-exp", "fig2"}, "-exp"},
		{[]string{"-exp", "fig5"}, ""},
	} {
		var out strings.Builder
		_, err := parseFlags(c.args, &out)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%q refused: %v", c.args, err)
		case c.want != "" && err == nil:
			t.Errorf("%q accepted, want %s refused", c.args, c.want)
		case c.want != "" && !strings.Contains(out.String(), c.want):
			t.Errorf("%q: refusal %q does not name %s", c.args, out.String(), c.want)
		}
	}
}

// TestParseFlagsDefaults pins what a bare run parses to.
func TestParseFlagsDefaults(t *testing.T) {
	o, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.exp != "all" || o.fleetUsers != 100_000 || o.faultTrials != 20 || o.trials != 3 || o.fleetSeed != 1 {
		t.Errorf("defaults = %+v", o)
	}
}
