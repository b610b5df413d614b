package units

import (
	"testing"
	"testing/quick"
	"time"
)

func TestBandwidthString(t *testing.T) {
	cases := []struct {
		in   Bandwidth
		want string
	}{
		{10 * Mbps, "10Mb/s"},
		{1 * Gbps, "1Gb/s"},
		{500 * Kbps, "500Kb/s"},
		{999, "999b/s"},
		{1500 * Kbps, "1500Kb/s"},
		{2500000, "2500Kb/s"},
		{Bandwidth(1234567), "1.23Mb/s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bandwidth(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestParseBandwidth(t *testing.T) {
	cases := []struct {
		in   string
		want Bandwidth
	}{
		{"10Mb/s", 10 * Mbps},
		{"10mbps", 10 * Mbps},
		{"1.5Gb/s", 1500 * Mbps},
		{"500Kb/s", 500 * Kbps},
		{"250000", 250000},
		{" 42 m ", 42 * Mbps},
	}
	for _, c := range cases {
		got, err := ParseBandwidth(c.in)
		if err != nil {
			t.Fatalf("ParseBandwidth(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseBandwidth(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseBandwidthErrors(t *testing.T) {
	for _, in := range []string{"", "abc", "-5Mb/s", "Mb/s", "10XB/s"} {
		if _, err := ParseBandwidth(in); err == nil {
			t.Errorf("ParseBandwidth(%q): expected error", in)
		}
	}
}

func TestParseBandwidthRoundTrip(t *testing.T) {
	f := func(n uint32) bool {
		b := Bandwidth(n)
		got, err := ParseBandwidth(b.String())
		if err != nil {
			return false
		}
		// Fractional renderings lose at most 0.5% precision.
		diff := int64(got) - int64(b)
		if diff < 0 {
			diff = -diff
		}
		return diff*200 <= int64(b)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBytesIn(t *testing.T) {
	if got := (8 * Mbps).BytesIn(time.Second); got != 1_000_000 {
		t.Errorf("8Mb/s over 1s = %d bytes, want 1000000", got)
	}
	if got := (10 * Mbps).BytesIn(500 * time.Millisecond); got != 625_000 {
		t.Errorf("10Mb/s over 0.5s = %d bytes, want 625000", got)
	}
}

func TestWindowBasics(t *testing.T) {
	t0 := time.Date(2001, 8, 1, 9, 0, 0, 0, time.UTC)
	w := NewWindow(t0, time.Hour)
	if !w.Valid() {
		t.Fatal("window should be valid")
	}
	if !w.Start.Equal(t0) || !w.End.Equal(t0.Add(time.Hour)) {
		t.Errorf("window = %v, want an hour from %v", w, t0)
	}
	if NewWindow(t0, 0).Valid() || (Window{Start: w.End, End: w.Start}).Valid() {
		t.Error("an empty or reversed window must not be valid")
	}
}

func TestByteSizeString(t *testing.T) {
	cases := []struct {
		in   ByteSize
		want string
	}{
		{512, "512B"},
		{1500, "1.50KB"},
		{3 * MB, "3.00MB"},
		{2 * GB, "2.00GB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("ByteSize(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}
