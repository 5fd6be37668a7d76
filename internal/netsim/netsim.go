// Package netsim provides the deterministic Internet model underneath the
// traffic generator: cloud IPv4 address pools with pseudorandom allocation
// and reuse (mirroring how DSCOPE's telescope instances constantly cycle
// through provider address space), scanner source populations, and the
// temporal processes that shape exploit campaigns (a post-publication burst
// with a heavy sustained tail, per Figures 4 and 5c).
//
// The package also models the adversarial network (impair.go, evasion.go):
// seeded impairment profiles — loss, reordering, duplication, MTU
// blackholes, mid-stream aborts — composable onto any capture source and
// onto fault.Network, plus an evasion corpus of segment schedules aimed at
// the reassembler. Impairment decisions are content-addressed (a PRF of
// seed and frame bytes), so the same frame meets the same fate on every
// path through the system.
//
// Everything is seeded: the same configuration always yields the same
// simulated Internet, which is what makes the downstream experiment harness
// reproducible.
package netsim

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"
)

// Pool is an IPv4 address pool that hands out pseudorandom addresses from a
// set of prefixes, the way cloud tenants receive addresses. Allocation may
// repeat addresses over time (cloud IP reuse), which the paper notes
// improves telescope coverage.
type Pool struct {
	prefixes []netip.Prefix
	sizes    []uint32
	total    uint64
	rng      *rand.Rand
}

// NewPool builds a pool over the given IPv4 prefixes.
func NewPool(seed int64, prefixes ...netip.Prefix) (*Pool, error) {
	if len(prefixes) == 0 {
		return nil, fmt.Errorf("netsim: pool needs at least one prefix")
	}
	p := &Pool{rng: rand.New(rand.NewSource(seed))}
	for _, pf := range prefixes {
		if !pf.Addr().Is4() {
			return nil, fmt.Errorf("netsim: prefix %s is not IPv4", pf)
		}
		bits := 32 - pf.Bits()
		size := uint32(1) << bits
		p.prefixes = append(p.prefixes, pf.Masked())
		p.sizes = append(p.sizes, size)
		p.total += uint64(size)
	}
	return p, nil
}

// MustPool is NewPool for static configuration; it panics on error.
func MustPool(seed int64, prefixes ...string) *Pool {
	ps := make([]netip.Prefix, len(prefixes))
	for i, s := range prefixes {
		ps[i] = netip.MustParsePrefix(s)
	}
	p, err := NewPool(seed, ps...)
	if err != nil {
		panic(err)
	}
	return p
}

// Size returns the number of addresses in the pool.
func (p *Pool) Size() uint64 { return p.total }

// Next returns a pseudorandom address from the pool. Addresses repeat.
func (p *Pool) Next() netip.Addr {
	n := uint64(p.rng.Int63n(int64(p.total)))
	for i, size := range p.sizes {
		if n < uint64(size) {
			base := p.prefixes[i].Addr().As4()
			v := be32(base) + uint32(n)
			return netip.AddrFrom4(u32be(v))
		}
		n -= uint64(size)
	}
	// Unreachable: n < total by construction.
	base := p.prefixes[0].Addr().As4()
	return netip.AddrFrom4(base)
}

// AddrAt returns the n-th address of the pool (prefixes concatenated in
// construction order). n is taken modulo the pool size, so any index is
// valid; the mapping is stable, which deterministic allocators rely on.
func (p *Pool) AddrAt(n uint64) netip.Addr {
	n %= p.total
	for i, size := range p.sizes {
		if n < uint64(size) {
			base := p.prefixes[i].Addr().As4()
			return netip.AddrFrom4(u32be(be32(base) + uint32(n)))
		}
		n -= uint64(size)
	}
	base := p.prefixes[0].Addr().As4()
	return netip.AddrFrom4(base)
}

// Contains reports whether addr falls inside the pool's prefixes.
func (p *Pool) Contains(addr netip.Addr) bool {
	for _, pf := range p.prefixes {
		if pf.Contains(addr) {
			return true
		}
	}
	return false
}

func be32(b [4]byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func u32be(v uint32) [4]byte {
	return [4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// Sources is a fixed scanner source population. The paper observed exploit
// traffic from only 3.6 k of the 15 M IPs that contacted the telescope;
// campaigns draw their sources from a small dedicated population while the
// background noise uses a much larger one.
type Sources struct {
	addrs []netip.Addr
	rng   *rand.Rand
}

// NewSources draws n distinct source addresses from pool.
func NewSources(seed int64, pool *Pool, n int) *Sources {
	s := &Sources{rng: rand.New(rand.NewSource(seed))}
	seen := map[netip.Addr]bool{}
	for len(s.addrs) < n {
		a := pool.Next()
		if seen[a] {
			continue
		}
		seen[a] = true
		s.addrs = append(s.addrs, a)
	}
	return s
}

// Pick returns a pseudorandom member of the population.
func (s *Sources) Pick() netip.Addr {
	return s.addrs[s.rng.Intn(len(s.addrs))]
}

// Len returns the population size.
func (s *Sources) Len() int { return len(s.addrs) }

// Addrs returns the underlying addresses (not a copy; treat as read-only).
func (s *Sources) Addrs() []netip.Addr { return s.addrs }

// CampaignTimes samples event timestamps for one exploit campaign.
//
// The first event is pinned exactly at first (Appendix E gives the measured
// first-attack time per CVE). The remaining n−1 events follow the paper's
// observed shape: a burst that decays roughly exponentially after the
// campaign starts (Figure 5c "rough exponential distribution") plus a heavy
// sustained tail stretching to the end of the study (Figure 4 "sustained
// traffic for months or years"). BurstWeight controls the mixture.
type CampaignTimes struct {
	// First is the exact first-event time.
	First time.Time
	// BurstStart anchors the burst component. Zero means First. Campaigns
	// whose first observation predates public disclosure anchor the burst
	// at disclosure instead: the paper's pre-publication traffic is
	// sporadic, with the spike following the announcement (Figure 5c).
	BurstStart time.Time
	// End is the end of the collection window.
	End time.Time
	// BurstMean is the exponential decay mean for burst events. Zero means
	// the default of 15 days.
	BurstMean time.Duration
	// BurstWeight in [0,1] is the share of events in the burst component.
	// Zero means the default of 0.25 (the tail dominates: the paper's
	// event rate rises over time as the CVE population accumulates).
	BurstWeight float64
	// TailPower shapes the sustained tail: offsets are span·U^(1/TailPower)
	// for uniform U. 1 (the default) is a uniform tail; 2 gives linearly
	// increasing density, matching the paper's rising event rate over time
	// (Figure 3) driven by legacy/botnet scanning of old CVEs.
	TailPower float64
}

func (c CampaignTimes) withDefaults() CampaignTimes {
	if c.BurstMean == 0 {
		c.BurstMean = 15 * 24 * time.Hour
	}
	if c.BurstWeight == 0 {
		c.BurstWeight = 0.25
	}
	if c.TailPower == 0 {
		c.TailPower = 1
	}
	return c
}

// Sample returns n event times in ascending order, the first exactly at
// c.First. The rng must be dedicated to this campaign for reproducibility.
// It is a thin wrapper over Stream (see stream.go), so the materialized and
// streaming paths share one generator: the burst component samples the
// truncated exponential exactly through its inverse CDF (no retry loop) and
// the output needs no final sort.
func (c CampaignTimes) Sample(rng *rand.Rand, n int) []time.Time {
	if n <= 0 {
		return nil
	}
	st := c.Stream(rng, n)
	out := make([]time.Time, 0, n)
	for {
		t, ok := st.Next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}
