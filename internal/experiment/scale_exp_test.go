package experiment

import (
	"strings"
	"testing"
	"time"
)

// TestScaleLoadConfigValidation pins the config check RunScaleLoad
// used to skip: a negative latency was silently absorbed.
func TestScaleLoadConfigValidation(t *testing.T) {
	cases := []struct {
		name    string
		cfg     ScaleLoadConfig
		wantErr string
	}{
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
