package netsim

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"
)

func TestPoolBasics(t *testing.T) {
	p := MustPool(1, "10.0.0.0/24", "192.0.2.0/28")
	if p.Size() != 256+16 {
		t.Errorf("Size = %d, want 272", p.Size())
	}
	for i := 0; i < 1000; i++ {
		a := p.Next()
		if !p.Contains(a) {
			t.Fatalf("Next() returned %s outside pool", a)
		}
	}
}

func TestPoolDeterministic(t *testing.T) {
	p1 := MustPool(5, "10.0.0.0/16")
	p2 := MustPool(5, "10.0.0.0/16")
	for i := 0; i < 100; i++ {
		if p1.Next() != p2.Next() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestPoolRejectsIPv6(t *testing.T) {
	_, err := NewPool(1, netip.MustParsePrefix("2001:db8::/64"))
	if err == nil {
		t.Error("NewPool accepted IPv6 prefix")
	}
	if _, err := NewPool(1); err == nil {
		t.Error("NewPool accepted empty prefix list")
	}
}

func TestPoolCoversRange(t *testing.T) {
	// With a tiny pool, repeated draws should hit most addresses (reuse).
	p := MustPool(2, "198.51.100.0/28")
	seen := map[netip.Addr]bool{}
	for i := 0; i < 2000; i++ {
		seen[p.Next()] = true
	}
	if len(seen) < 14 {
		t.Errorf("coverage = %d/16 addresses", len(seen))
	}
}

func TestSourcesDistinct(t *testing.T) {
	pool := MustPool(3, "203.0.113.0/24")
	s := NewSources(3, pool, 50)
	if s.Len() != 50 {
		t.Fatalf("Len = %d", s.Len())
	}
	seen := map[netip.Addr]bool{}
	for _, a := range s.Addrs() {
		if seen[a] {
			t.Fatalf("duplicate source %s", a)
		}
		seen[a] = true
	}
	for i := 0; i < 100; i++ {
		if !seen[s.Pick()] {
			t.Fatal("Pick returned address outside population")
		}
	}
}

func TestCampaignTimesFirstPinned(t *testing.T) {
	first := time.Date(2021, 12, 10, 13, 0, 0, 0, time.UTC)
	end := time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)
	c := CampaignTimes{First: first, End: end}
	rng := rand.New(rand.NewSource(1))
	ts := c.Sample(rng, 500)
	if len(ts) != 500 {
		t.Fatalf("len = %d", len(ts))
	}
	if !ts[0].Equal(first) {
		t.Errorf("first event %v, want %v", ts[0], first)
	}
	for i := 1; i < len(ts); i++ {
		if ts[i].Before(ts[i-1]) {
			t.Fatal("times not sorted")
		}
		if ts[i].Before(first) || ts[i].After(end) {
			t.Fatalf("event %v outside [%v, %v]", ts[i], first, end)
		}
	}
}

func TestCampaignTimesBurstShape(t *testing.T) {
	first := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	end := first.Add(600 * 24 * time.Hour)
	c := CampaignTimes{First: first, End: end, BurstWeight: 0.9, BurstMean: 10 * 24 * time.Hour}
	rng := rand.New(rand.NewSource(2))
	ts := c.Sample(rng, 5000)
	within30 := 0
	for _, tm := range ts {
		if tm.Sub(first) <= 30*24*time.Hour {
			within30++
		}
	}
	// With 90% burst weight and a 10-day mean, the first month should hold
	// the strong majority of events.
	if frac := float64(within30) / float64(len(ts)); frac < 0.7 {
		t.Errorf("first-30-day fraction = %.2f, want > 0.7 for bursty campaign", frac)
	}
}

func TestCampaignTimesTailShape(t *testing.T) {
	first := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	end := first.Add(600 * 24 * time.Hour)
	c := CampaignTimes{First: first, End: end, BurstWeight: 0.1}
	rng := rand.New(rand.NewSource(3))
	ts := c.Sample(rng, 5000)
	lateHalf := 0
	for _, tm := range ts {
		if tm.Sub(first) > 300*24*time.Hour {
			lateHalf++
		}
	}
	// Tail-dominated campaigns keep a large share of late events.
	if frac := float64(lateHalf) / float64(len(ts)); frac < 0.35 {
		t.Errorf("late-half fraction = %.2f, want > 0.35 for sustained campaign", frac)
	}
}

func TestCampaignTimesDegenerateWindow(t *testing.T) {
	first := time.Date(2023, 2, 28, 0, 0, 0, 0, time.UTC)
	c := CampaignTimes{First: first, End: first}
	ts := c.Sample(rand.New(rand.NewSource(4)), 10)
	if len(ts) != 10 {
		t.Fatalf("len = %d", len(ts))
	}
	for _, tm := range ts {
		if !tm.Equal(first) {
			t.Fatal("degenerate window produced spread events")
		}
	}
}

func TestCampaignTimesZeroAndOne(t *testing.T) {
	c := CampaignTimes{First: time.Unix(0, 0), End: time.Unix(1000, 0)}
	if got := c.Sample(rand.New(rand.NewSource(1)), 0); got != nil {
		t.Errorf("Sample(0) = %v", got)
	}
	one := c.Sample(rand.New(rand.NewSource(1)), 1)
	if len(one) != 1 || !one[0].Equal(time.Unix(0, 0)) {
		t.Errorf("Sample(1) = %v", one)
	}
}
