package experiment

import (
	"strings"
	"testing"
	"time"
)

// TestScaleLoadConfigValidation pins the config checks RunScaleLoad
// used to skip: negative sampling probabilities and latencies were
// silently absorbed.
func TestScaleLoadConfigValidation(t *testing.T) {
	cases := []struct {
		name    string
		cfg     ScaleLoadConfig
		wantErr string
	}{
		{
			name:    "negative sample rate",
			cfg:     ScaleLoadConfig{SampleRate: -0.01},
			wantErr: "SampleRate",
		},
		{
			name:    "sample rate above one",
			cfg:     ScaleLoadConfig{SampleRate: 1.5},
			wantErr: "exceeds 1",
		},
		{
			name:    "negative latency",
			cfg:     ScaleLoadConfig{Latency: -time.Millisecond},
			wantErr: "Latency",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunScaleLoad(tc.cfg)
			if err == nil {
				t.Fatalf("RunScaleLoad(%+v) succeeded, want error containing %q", tc.cfg, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestScaleLoadConfigAccepts pins the boundary values that must keep
// working: a zero is a value, not a reason to reject.
func TestScaleLoadConfigAccepts(t *testing.T) {
	cases := []struct {
		name string
		cfg  ScaleLoadConfig
	}{
		{name: "zero everything defaults", cfg: ScaleLoadConfig{}},
		{name: "zero sample rate disables sampling", cfg: ScaleLoadConfig{SampleRate: 0}},
		{name: "probability one", cfg: ScaleLoadConfig{SampleRate: 1}},
		{name: "zero latency", cfg: ScaleLoadConfig{Latency: 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.validate(); err != nil {
				t.Fatalf("validate(%+v): %v", tc.cfg, err)
			}
		})
	}
}
