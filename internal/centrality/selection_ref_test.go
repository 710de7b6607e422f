package centrality

import (
	"reflect"
	"sync"
	"testing"

	"freshcache/internal/stats"
	"freshcache/internal/trace"
)

// referenceSelect is the per-pair greedy loop SelectCachingNodesExcluding
// replaced: every round re-evaluates ExpCDF for every pair, through
// VisitNeighbors when the view offers it and a full Rate scan otherwise.
// The coverage-table implementation must pick the same nodes in the same
// order.
func referenceSelect(v RateView, window float64, k int, exclude map[trace.NodeID]bool) []trace.NodeID {
	n := v.N()
	nv, fast := v.(NeighborVisitor)
	notCovered := make([]float64, n)
	for j := range notCovered {
		notCovered[j] = 1
	}
	selected := make([]trace.NodeID, 0, k)
	inSet := make([]bool, n)
	for len(selected) < k {
		best := trace.NodeID(-1)
		bestGain := -1.0
		for cand := 0; cand < n; cand++ {
			if inSet[cand] || exclude[trace.NodeID(cand)] {
				continue
			}
			gain := notCovered[cand]
			if fast {
				nv.VisitNeighbors(trace.NodeID(cand), func(j trace.NodeID, rate float64) {
					if inSet[j] {
						return
					}
					gain += notCovered[j] * stats.ExpCDF(rate, window)
				})
			} else {
				for j := 0; j < n; j++ {
					if j == cand || inSet[j] {
						continue
					}
					gain += notCovered[j] * stats.ExpCDF(v.Rate(trace.NodeID(cand), trace.NodeID(j)), window)
				}
			}
			if gain > bestGain {
				bestGain = gain
				best = trace.NodeID(cand)
			}
		}
		selected = append(selected, best)
		inSet[best] = true
		notCovered[best] = 0
		if fast {
			nv.VisitNeighbors(best, func(j trace.NodeID, rate float64) {
				notCovered[j] *= 1 - stats.ExpCDF(rate, window)
			})
		} else {
			for j := 0; j < n; j++ {
				if j != int(best) {
					notCovered[j] *= 1 - stats.ExpCDF(v.Rate(best, trace.NodeID(j)), window)
				}
			}
		}
	}
	return selected
}

// tiedRates fills a store with random pairs at the given density, then
// appends twin components: copies of one random clique with identical
// rates, whose members' gains tie exactly, and a tail of isolated nodes
// whose gains are exactly 1.
func tiedRates(t *testing.T, n int, density float64, b Backing, seed int64) RateStore {
	t.Helper()
	m, err := NewRateStore(n, b)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(seed)
	const clique, twins, isolated = 4, 3, 5
	random := n - clique*twins - isolated
	for a := 0; a < random; a++ {
		for c := a + 1; c < random; c++ {
			if rng.Float64() < density {
				m.Set(trace.NodeID(a), trace.NodeID(c), stats.Exp(rng, 6*3600))
			}
		}
	}
	var cliqueRates [clique][clique]float64
	for a := 0; a < clique; a++ {
		for c := a + 1; c < clique; c++ {
			cliqueRates[a][c] = stats.Exp(rng, 3*3600)
		}
	}
	for tw := 0; tw < twins; tw++ {
		base := random + tw*clique
		for a := 0; a < clique; a++ {
			for c := a + 1; c < clique; c++ {
				m.Set(trace.NodeID(base+a), trace.NodeID(base+c), cliqueRates[a][c])
			}
		}
	}
	return m
}

// TestSelectionMatchesReference: over 24 seeds of dense and sparse random
// views, with and without exclusions, on both backings and on the
// visitor-free fallback, the coverage-table selection equals the per-pair
// reference node for node, including where gains tie exactly.
func TestSelectionMatchesReference(t *testing.T) {
	type shape struct {
		name    string
		n       int
		density float64
		backing Backing
	}
	shapes := []shape{
		{"dense", 60, 0.7, BackingDense},
		{"sparse", 300, 0.03, BackingSparse},
	}
	for seed := int64(1); seed <= 24; seed++ {
		for _, sh := range shapes {
			m := tiedRates(t, sh.n, sh.density, sh.backing, seed)
			rng := stats.NewRNG(seed * 7919)
			exclude := map[trace.NodeID]bool{}
			for i := 0; i < int(seed%6); i++ {
				exclude[trace.NodeID(rng.Intn(sh.n))] = true
			}
			// Every selectable node: the greedy loop runs through the
			// tied twins and isolated tail, not just the random core.
			k := 1 + rng.Intn(12)
			if seed%4 == 0 {
				k = sh.n - len(exclude)
			}
			window := []float64{3600, 6 * 3600, 24 * 3600}[seed%3]
			want := referenceSelect(m, window, k, exclude)
			for _, v := range []RateView{m, plainView{m}} {
				got, err := SelectCachingNodesExcluding(v, window, k, exclude)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %s (%T) k=%d: selected %v, reference %v", seed, sh.name, v, k, got, want)
				}
			}
		}
	}
}

// TestSelectionConcurrent: selections running at once (as sweep workers
// do) each get their own recycled coverage table, so none sees another's
// state.
func TestSelectionConcurrent(t *testing.T) {
	views := make([]RateStore, 4)
	want := make([][]trace.NodeID, len(views))
	for i := range views {
		views[i] = tiedRates(t, 40+10*i, 0.5, BackingDense, int64(100+i))
		want[i] = referenceSelect(views[i], 6*3600, 8, nil)
	}
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				got, err := SelectCachingNodes(views[i], 6*3600, 8)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("view %d rep %d: selected %v, reference %v", i, rep, got, want[i])
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
