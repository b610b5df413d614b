// Package units defines the quantity types shared across the QoS
// architecture: bandwidth, data sizes, and helpers for working with
// reservation time windows.
//
// Bandwidth is stored in bits per second as an int64, mirroring how the
// paper's service level specifications express traffic profiles (e.g.
// "10 Mb/s of guaranteed bandwidth").
package units

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Bandwidth is a data rate in bits per second.
type Bandwidth int64

// Common bandwidth units.
const (
	BitPerSecond Bandwidth = 1
	Kbps                   = 1000 * BitPerSecond
	Mbps                   = 1000 * Kbps
	Gbps                   = 1000 * Mbps
)

// String renders the bandwidth with the largest unit that divides it
// into a value >= 1, e.g. "10Mb/s".
func (b Bandwidth) String() string {
	switch {
	case b >= Gbps && b%Gbps == 0:
		return fmt.Sprintf("%dGb/s", b/Gbps)
	case b >= Mbps && b%Mbps == 0:
		return fmt.Sprintf("%dMb/s", b/Mbps)
	case b >= Kbps && b%Kbps == 0:
		return fmt.Sprintf("%dKb/s", b/Kbps)
	case b >= Gbps:
		return fmt.Sprintf("%.2fGb/s", float64(b)/float64(Gbps))
	case b >= Mbps:
		return fmt.Sprintf("%.2fMb/s", b.Mbits())
	case b >= Kbps:
		return fmt.Sprintf("%.2fKb/s", float64(b)/float64(Kbps))
	default:
		return fmt.Sprintf("%db/s", int64(b))
	}
}

// Mbits returns the bandwidth expressed in megabits per second.
func (b Bandwidth) Mbits() float64 { return float64(b) / float64(Mbps) }

// ParseBandwidth parses strings such as "10Mb/s", "1.5Gbps", "500Kb/s",
// "250000" (plain bits per second). Unit matching is case-insensitive and
// accepts the suffixes "b/s", "bps", or no suffix after the magnitude
// letter.
func ParseBandwidth(s string) (Bandwidth, error) {
	orig := s
	s = strings.TrimSpace(strings.ToLower(s))
	s = strings.TrimSuffix(s, "b/s")
	s = strings.TrimSuffix(s, "bps")
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "g"):
		mult = int64(Gbps)
		s = strings.TrimSuffix(s, "g")
	case strings.HasSuffix(s, "m"):
		mult = int64(Mbps)
		s = strings.TrimSuffix(s, "m")
	case strings.HasSuffix(s, "k"):
		mult = int64(Kbps)
		s = strings.TrimSuffix(s, "k")
	}
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("units: invalid bandwidth %q", orig)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		if f < 0 {
			return 0, fmt.Errorf("units: negative bandwidth %q", orig)
		}
		return Bandwidth(f * float64(mult)), nil
	}
	return 0, fmt.Errorf("units: invalid bandwidth %q", orig)
}

// BytesIn returns how many bytes a flow at rate b transfers during d.
func (b Bandwidth) BytesIn(d time.Duration) int64 {
	bits := float64(b) * d.Seconds()
	return int64(bits / 8)
}

// ByteSize is a data volume in bytes.
type ByteSize int64

// Common byte sizes.
const (
	Byte ByteSize = 1
	KB            = 1000 * Byte
	MB            = 1000 * KB
	GB            = 1000 * MB
)

// String renders the size with a decimal unit, e.g. "1.50MB".
func (s ByteSize) String() string {
	switch {
	case s >= GB:
		return fmt.Sprintf("%.2fGB", float64(s)/float64(GB))
	case s >= MB:
		return fmt.Sprintf("%.2fMB", float64(s)/float64(MB))
	case s >= KB:
		return fmt.Sprintf("%.2fKB", float64(s)/float64(KB))
	default:
		return fmt.Sprintf("%dB", int64(s))
	}
}

// Window is a half-open time interval [Start, End) used by advance
// reservations.
type Window struct {
	Start time.Time
	End   time.Time
}

// NewWindow returns the window [start, start+d).
func NewWindow(start time.Time, d time.Duration) Window {
	return Window{Start: start, End: start.Add(d)}
}

// Valid reports whether the window is non-empty and well ordered.
func (w Window) Valid() bool { return w.End.After(w.Start) }

func (w Window) String() string {
	return fmt.Sprintf("[%s, %s)", w.Start.Format(time.RFC3339), w.End.Format(time.RFC3339))
}
