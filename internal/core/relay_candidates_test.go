package core

import (
	"math"
	"testing"

	"freshcache/internal/centrality"
	"freshcache/internal/stats"
	"freshcache/internal/trace"
)

// tiedRelayRates builds a random rate store in which node 0 (the holder)
// and node 1 (the destination) share several relays whose two legs carry
// identical rates, so their two-hop probabilities tie exactly and only
// the ID tie-break orders them.
func tiedRelayRates(t *testing.T, n int, density float64, b centrality.Backing, seed int64) centrality.RateStore {
	t.Helper()
	m, err := centrality.NewRateStore(n, b)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(seed)
	for a := 0; a < n; a++ {
		for c := a + 1; c < n; c++ {
			if rng.Float64() < density {
				m.Set(trace.NodeID(a), trace.NodeID(c), stats.Exp(rng, 4*3600))
			}
		}
	}
	hr, rd := stats.Exp(rng, 2*3600), stats.Exp(rng, 2*3600)
	for i := 0; i < 4; i++ {
		r := trace.NodeID(2 + rng.Intn(n-2))
		m.Set(0, r, hr)
		m.Set(r, 1, rd)
	}
	return m
}

// samePlan compares two plans bit for bit.
func samePlan(a, b RelayPlan) bool {
	if a.Dest != b.Dest || a.Satisfied != b.Satisfied || len(a.Relays) != len(b.Relays) ||
		math.Float64bits(a.DirectProb) != math.Float64bits(b.DirectProb) ||
		math.Float64bits(a.AchievedProb) != math.Float64bits(b.AchievedProb) {
		return false
	}
	for i := range a.Relays {
		if a.Relays[i] != b.Relays[i] {
			return false
		}
	}
	return true
}

// TestRelayCandidatesMatchAllNodes: planning over the holder's neighbors
// (what the refresh schemes pass) gives the plan planning over every node
// gives — same relays in the same order, bit-identical probabilities and
// the same verdict — on dense and sparse views, under relay bounds and
// with exactly tied relay probabilities.
func TestRelayCandidatesMatchAllNodes(t *testing.T) {
	shapes := []struct {
		n       int
		density float64
		backing centrality.Backing
	}{
		{50, 0.6, centrality.BackingDense},
		{400, 0.02, centrality.BackingSparse},
	}
	for seed := int64(1); seed <= 20; seed++ {
		for _, sh := range shapes {
			m := tiedRelayRates(t, sh.n, sh.density, sh.backing, seed)
			s := &refreshScheme{rt: &Runtime{N: sh.n}}
			all := s.rt.AllNodes()
			for holder := trace.NodeID(0); holder < 3; holder++ {
				dest := (holder + 1) % 3
				cands := s.relayCandidates(m, holder)
				if len(cands) >= sh.n {
					t.Fatalf("seed %d n=%d: %d candidates, want the holder's neighbors only", seed, sh.n, len(cands))
				}
				for _, budget := range []float64{600, 3600, 6 * 3600, 48 * 3600} {
					for _, bound := range []int{0, 1, 3} {
						for _, pReq := range []float64{0.5, 0.9, 0.999} {
							want, err := PlanReplication(m, holder, dest, all, budget, pReq, bound)
							if err != nil {
								t.Fatal(err)
							}
							got, err := PlanReplication(m, holder, dest, cands, budget, pReq, bound)
							if err != nil {
								t.Fatal(err)
							}
							if !samePlan(got, want) {
								t.Fatalf("seed %d n=%d holder %d budget %v bound %d pReq %v:\nneighbors %+v\nall nodes %+v",
									seed, sh.n, holder, budget, bound, pReq, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestRelayCandidatesFallback: a view that cannot enumerate neighbors
// (the distributed local views) keeps every node as a candidate.
func TestRelayCandidatesFallback(t *testing.T) {
	m := tiedRelayRates(t, 30, 0.3, centrality.BackingDense, 1)
	s := &refreshScheme{rt: &Runtime{N: 30}}
	if got := s.relayCandidates(struct{ centrality.RateView }{m}, 0); len(got) != 30 {
		t.Fatalf("fallback offered %d candidates, want all 30", len(got))
	}
}
