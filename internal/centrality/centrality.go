// Package centrality implements the contact-based metrics the scheme is
// built on: pairwise contact-rate estimation (the λij of the Poisson
// contact model), the cumulative-contact-probability centrality used in
// this paper family, and the greedy coverage-based selection of caching
// nodes (the Network Central Locations of Gao & Cao's cooperative-caching
// substrate).
package centrality

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"freshcache/internal/stats"
	"freshcache/internal/trace"
)

// Epoched is implemented by rate views whose knowledge is immutable once
// published, identified by an epoch tag: two reads through the same view
// with the same epoch are guaranteed to return the same rates. Consumers
// (e.g. the replication-plan memo in core) use the epoch as a cache key
// and treat views without the interface — such as the continuously
// updated per-node views of DistributedEstimator — as uncacheable.
type Epoched interface {
	// Epoch returns the view's snapshot identity. Distinct snapshots have
	// distinct epochs; the value carries no meaning beyond equality.
	Epoch() uint64
}

// matrixEpochs tags each RateMatrix with a process-unique epoch at
// construction. Matrices are built, published and then only read (the
// engine swaps in a whole new matrix on rebuild), so construction order
// is a sound snapshot identity.
var matrixEpochs atomic.Uint64

// RateMatrix holds symmetric pairwise contact rates (1/s) for N nodes.
type RateMatrix struct {
	n     int
	epoch uint64
	rates []float64 // flat n*n, both (a,b) and (b,a) kept in sync
}

// NewRateMatrix returns a zero rate matrix for n nodes. Node counts above
// MaxDenseNodes are refused with a *SizeError; use NewSparseRates (or
// NewRateStore with BackingAuto) for large networks.
func NewRateMatrix(n int) (*RateMatrix, error) {
	if err := checkDense("NewRateMatrix", n); err != nil {
		return nil, err
	}
	return &RateMatrix{n: n, epoch: matrixEpochs.Add(1), rates: make([]float64, n*n)}, nil
}

// Epoch implements Epoched: the matrix's snapshot identity, assigned at
// construction.
func (m *RateMatrix) Epoch() uint64 { return m.epoch }

var _ Epoched = (*RateMatrix)(nil)

// N returns the number of nodes.
func (m *RateMatrix) N() int { return m.n }

// Set records the contact rate for the pair (a, b).
func (m *RateMatrix) Set(a, b trace.NodeID, rate float64) {
	m.rates[int(a)*m.n+int(b)] = rate
	m.rates[int(b)*m.n+int(a)] = rate
}

// Rate returns the contact rate of the pair (a, b); zero for pairs that
// never meet and for a == b.
func (m *RateMatrix) Rate(a, b trace.NodeID) float64 {
	if a == b {
		return 0
	}
	return m.rates[int(a)*m.n+int(b)]
}

// FromTrace builds the oracle rate store from the contacts starting in
// [from, to), counting only observed pairs (O(contacts), never n²). The
// backing is chosen automatically by node count. This is the
// converged-knowledge estimator used when a protocol is granted full rate
// information; the online counterpart is Estimator.
func FromTrace(t *trace.Trace, from, to float64) (RateStore, error) {
	return FromTraceBacking(t, from, to, BackingAuto)
}

// FromTraceBacking is FromTrace with an explicit backing choice.
func FromTraceBacking(t *trace.Trace, from, to float64, b Backing) (RateStore, error) {
	if to <= from {
		return nil, fmt.Errorf("centrality: empty window [%v,%v)", from, to)
	}
	m, err := NewRateStore(t.N, b)
	if err != nil {
		return nil, err
	}
	counts := make(map[int]int)
	for _, c := range t.Contacts {
		if c.Start >= from && c.Start < to {
			counts[trace.PairKey(c.A, c.B, t.N)]++
		}
	}
	keys := make([]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	w := to - from
	for _, k := range keys {
		m.Set(trace.NodeID(k/t.N), trace.NodeID(k%t.N), float64(counts[k])/w)
	}
	return m, nil
}

// Estimator accumulates contact observations online and converts them to
// rates over the observed window, exactly as a node running the protocol
// would (contacts counted over elapsed time). A single Estimator models
// the network-wide view that nodes converge to by transitively exchanging
// contact histories on every contact — the standard assumption of this
// paper family. The backing mirrors the rate stores: a flat n×n count
// slice for small networks, a pair-keyed map of observed pairs for large
// ones.
type Estimator struct {
	n      int
	start  float64
	counts []int       // dense backing; nil when sparse
	sparse map[int]int // sparse backing, trace.PairKey → count; nil when dense
}

// NewEstimator returns an estimator for n nodes observing from startTime,
// with the backing chosen automatically by node count.
func NewEstimator(n int, startTime float64) (*Estimator, error) {
	return NewEstimatorBacking(n, startTime, BackingAuto)
}

// NewEstimatorBacking is NewEstimator with an explicit backing choice.
func NewEstimatorBacking(n int, startTime float64, b Backing) (*Estimator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("centrality: NewEstimator: non-positive node count %d", n)
	}
	e := &Estimator{n: n, start: startTime}
	switch b.resolve(n) {
	case BackingSparse:
		e.sparse = make(map[int]int)
	default:
		if err := checkDense("NewEstimator", n); err != nil {
			return nil, err
		}
		e.counts = make([]int, n*n)
	}
	return e, nil
}

// Observe records one contact between a and b. The contact time is not
// stored; rates derive from counts over the window.
func (e *Estimator) Observe(a, b trace.NodeID) {
	if e.counts != nil {
		e.counts[int(a)*e.n+int(b)]++
		e.counts[int(b)*e.n+int(a)]++
		return
	}
	e.sparse[trace.PairKey(a, b, e.n)]++
}

// Counts returns a copy of the pairwise contact-count matrix, for
// windowed estimation via RatesBetween. It is defined only for the dense
// backing and returns nil for a sparse estimator — backing-agnostic
// consumers should use Snapshot and RatesBetweenSnapshots instead.
func (e *Estimator) Counts() []int {
	if e.counts == nil {
		return nil
	}
	out := make([]int, len(e.counts))
	copy(out, e.counts)
	return out
}

// Snapshot returns an immutable copy of the current pairwise counts in
// the estimator's own backing, for windowed estimation via
// RatesBetweenSnapshots.
func (e *Estimator) Snapshot() CountSnapshot {
	if e.counts != nil {
		out := make([]int, len(e.counts))
		copy(out, e.counts)
		return CountSnapshot{n: e.n, dense: out}
	}
	out := make(map[int]int, len(e.sparse))
	for k, v := range e.sparse {
		out[k] = v
	}
	return CountSnapshot{n: e.n, sparse: out}
}

// RatesBetween computes the rate matrix from the growth between two count
// snapshots (as returned by Counts) over an observation window — the
// recent-history estimate used by periodic hierarchy rebuilds, which must
// track drift rather than average over all regimes ever seen.
func RatesBetween(before, after []int, n int, window float64) (*RateMatrix, error) {
	if window <= 0 {
		return nil, fmt.Errorf("centrality: non-positive window %v", window)
	}
	if len(before) != n*n || len(after) != n*n {
		return nil, fmt.Errorf("centrality: snapshot size mismatch (%d, %d, n=%d)", len(before), len(after), n)
	}
	m, err := NewRateMatrix(n)
	if err != nil {
		return nil, err
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			d := after[a*n+b] - before[a*n+b]
			if d < 0 {
				return nil, fmt.Errorf("centrality: snapshot went backwards at pair (%d,%d)", a, b)
			}
			if d > 0 {
				m.Set(trace.NodeID(a), trace.NodeID(b), float64(d)/window)
			}
		}
	}
	return m, nil
}

// Rates snapshots the estimated rate store as of `now`.
func (e *Estimator) Rates(now float64) (RateStore, error) {
	window := now - e.start
	if window <= 0 {
		return nil, fmt.Errorf("centrality: no observation time elapsed (now=%v, start=%v)", now, e.start)
	}
	if e.counts != nil {
		m, err := NewRateMatrix(e.n)
		if err != nil {
			return nil, err
		}
		for a := 0; a < e.n; a++ {
			for b := a + 1; b < e.n; b++ {
				if k := e.counts[a*e.n+b]; k > 0 {
					m.Set(trace.NodeID(a), trace.NodeID(b), float64(k)/window)
				}
			}
		}
		return m, nil
	}
	s, err := NewSparseRates(e.n)
	if err != nil {
		return nil, err
	}
	keys := make([]int, 0, len(e.sparse))
	for k := range e.sparse {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		s.Set(trace.NodeID(k/e.n), trace.NodeID(k%e.n), float64(e.sparse[k])/window)
	}
	return s, nil
}

// Scores computes each node's cumulative-contact-probability centrality:
// the expected fraction of other nodes it meets within the given time
// window, C_i = (1/(N-1)) Σ_j (1 − e^{−λij·T}). Views that can enumerate
// nonzero neighbors get an O(pairs) path; since ExpCDF(0, T) is exactly
// 0, it is bit-identical to the dense full loop.
func Scores(v RateView, window float64) []float64 {
	n := v.N()
	scores := make([]float64, n)
	if n <= 1 {
		return scores
	}
	if nv, ok := v.(NeighborVisitor); ok {
		for a := 0; a < n; a++ {
			var sum float64
			nv.VisitNeighbors(trace.NodeID(a), func(b trace.NodeID, rate float64) {
				sum += stats.ExpCDF(rate, window)
			})
			scores[a] = sum / float64(n-1)
		}
		return scores
	}
	for a := 0; a < n; a++ {
		var sum float64
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			sum += stats.ExpCDF(v.Rate(trace.NodeID(a), trace.NodeID(b)), window)
		}
		scores[a] = sum / float64(n-1)
	}
	return scores
}

// Rank returns node IDs sorted by descending centrality score, ties broken
// by ascending ID for determinism.
func Rank(scores []float64) []trace.NodeID {
	ids := make([]trace.NodeID, len(scores))
	for i := range ids {
		ids[i] = trace.NodeID(i)
	}
	sort.SliceStable(ids, func(i, j int) bool {
		si, sj := scores[ids[i]], scores[ids[j]]
		if si != sj {
			return si > sj
		}
		return ids[i] < ids[j]
	})
	return ids
}

// SelectCachingNodes picks k caching nodes (NCLs) by greedy marginal
// coverage: at each step it adds the node that most increases the expected
// number of nodes reachable within the window by at least one selected
// node, P_cov(j) = 1 − Π_{s∈S} (1 − p_sj). The first pick is therefore the
// highest-centrality node, and later picks favor nodes covering regions
// (communities) the current set misses — which is why plain top-k by
// centrality is not used.
func SelectCachingNodes(v RateView, window float64, k int) ([]trace.NodeID, error) {
	return SelectCachingNodesExcluding(v, window, k, nil)
}

// SelectCachingNodesExcluding is SelectCachingNodes with a set of nodes
// barred from selection — the engine excludes data sources, which already
// hold their own items and would waste a caching slot.
//
// The contact probabilities p_cj = ExpCDF(λcj, window) are computed once
// into a coverage table, so each of the k greedy rounds costs O(pairs)
// multiply-adds. The table keeps only nonzero p in the order the view
// yields them, ascending j; a zero p adds exactly 0 to a gain and
// multiplies notCovered by exactly 1, so the selection is bit-identical to
// evaluating every pair in every round.
func SelectCachingNodesExcluding(v RateView, window float64, k int, exclude map[trace.NodeID]bool) ([]trace.NodeID, error) {
	n := v.N()
	if k <= 0 || k > n-len(exclude) {
		return nil, fmt.Errorf("centrality: cannot select %d caching nodes out of %d (%d excluded)", k, n, len(exclude))
	}
	t := coveragePool.Get().(*coverageTable)
	defer coveragePool.Put(t)
	t.fill(v, window)
	t.reset(n, exclude)

	selected := make([]trace.NodeID, 0, k)
	for len(selected) < k {
		best := -1
		bestGain := -1.0
		for cand := 0; cand < n; cand++ {
			if t.inSet[cand] || t.excluded[cand] {
				continue
			}
			// Gain: candidate covers itself fully plus shrinks every other
			// node's not-covered probability by (1 - p_cand,j).
			gain := t.notCovered[cand]
			for _, e := range t.edges[t.off[cand]:t.off[cand+1]] {
				if !t.inSet[e.to] {
					gain += t.notCovered[e.to] * e.p
				}
			}
			if gain > bestGain {
				bestGain = gain
				best = cand
			}
		}
		selected = append(selected, trace.NodeID(best))
		t.inSet[best] = true
		t.notCovered[best] = 0
		for _, e := range t.edges[t.off[best]:t.off[best+1]] {
			t.notCovered[e.to] *= 1 - e.p
		}
	}
	return selected, nil
}

// coverageTable is greedy selection's working state: the nonzero contact
// probabilities in CSR form — node c's entries are edges[off[c]:off[c+1]]
// — plus the per-node exclusion, membership and not-covered arrays. Tables
// are recycled through coveragePool, so repeated selections reuse their
// capacity.
type coverageTable struct {
	off        []int32
	edges      []coverageEdge
	excluded   []bool
	inSet      []bool
	notCovered []float64 // Π over selected s of (1 - p_sj)
}

// coverageEdge is one nonzero p_cj of a candidate c.
type coverageEdge struct {
	to int32
	p  float64
}

var coveragePool = sync.Pool{New: func() any { return new(coverageTable) }}

// fill builds the table from the view. Views that enumerate neighbors are
// visited twice, once to count and once to fill, so the edge array is
// sized exactly; other views are read with a single Rate scan.
func (t *coverageTable) fill(v RateView, window float64) {
	n := v.N()
	t.off = slices.Grow(t.off[:0], n+1)[:n+1]
	t.edges = t.edges[:0]
	if nv, ok := v.(NeighborVisitor); ok {
		total := 0
		count := func(trace.NodeID, float64) { total++ }
		for a := 0; a < n; a++ {
			nv.VisitNeighbors(trace.NodeID(a), count)
		}
		t.edges = slices.Grow(t.edges, total)
		add := func(b trace.NodeID, rate float64) {
			if p := stats.ExpCDF(rate, window); p != 0 {
				t.edges = append(t.edges, coverageEdge{to: int32(b), p: p})
			}
		}
		for a := 0; a < n; a++ {
			t.off[a] = int32(len(t.edges))
			nv.VisitNeighbors(trace.NodeID(a), add)
		}
	} else {
		for a := 0; a < n; a++ {
			t.off[a] = int32(len(t.edges))
			for b := 0; b < n; b++ {
				if b == a {
					continue
				}
				if p := stats.ExpCDF(v.Rate(trace.NodeID(a), trace.NodeID(b)), window); p != 0 {
					t.edges = append(t.edges, coverageEdge{to: int32(b), p: p})
				}
			}
		}
	}
	t.off[n] = int32(len(t.edges))
}

// reset sizes the per-node arrays for n nodes: nothing selected, nothing
// covered, and the in-range members of exclude barred.
func (t *coverageTable) reset(n int, exclude map[trace.NodeID]bool) {
	t.excluded = resize(t.excluded, n, false)
	t.inSet = resize(t.inSet, n, false)
	t.notCovered = resize(t.notCovered, n, 1)
	for id, ex := range exclude {
		if ex && id >= 0 && int(id) < n {
			t.excluded[id] = true
		}
	}
}

// resize returns s with length n and every element set to x.
func resize[T any](s []T, n int, x T) []T {
	s = slices.Grow(s[:0], n)[:n]
	for i := range s {
		s[i] = x
	}
	return s
}

// Placement selects which nodes become caching nodes.
type Placement int

const (
	// PlaceGreedyCoverage is the paper family's NCL selection: greedy
	// marginal contact coverage (default).
	PlaceGreedyCoverage Placement = iota
	// PlaceTopCentrality takes the top-k nodes by centrality score,
	// ignoring coverage overlap.
	PlaceTopCentrality
	// PlaceRandom places caches uniformly at random — the placement
	// floor.
	PlaceRandom
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	switch p {
	case PlaceGreedyCoverage:
		return "greedy-coverage"
	case PlaceTopCentrality:
		return "top-centrality"
	case PlaceRandom:
		return "random"
	default:
		return fmt.Sprintf("placement(%d)", int(p))
	}
}

// Select picks k caching nodes under the given placement policy,
// excluding the given nodes (data sources). seed drives PlaceRandom only.
func Select(p Placement, v RateView, window float64, k int, exclude map[trace.NodeID]bool, seed int64) ([]trace.NodeID, error) {
	n := v.N()
	if k <= 0 || k > n-len(exclude) {
		return nil, fmt.Errorf("centrality: cannot select %d caching nodes out of %d (%d excluded)", k, n, len(exclude))
	}
	switch p {
	case PlaceGreedyCoverage:
		return SelectCachingNodesExcluding(v, window, k, exclude)
	case PlaceTopCentrality:
		ranked := Rank(Scores(v, window))
		out := make([]trace.NodeID, 0, k)
		for _, id := range ranked {
			if exclude[id] {
				continue
			}
			out = append(out, id)
			if len(out) == k {
				break
			}
		}
		return out, nil
	case PlaceRandom:
		rng := stats.Derive(seed, "centrality/random-placement")
		perm := rng.Perm(n)
		out := make([]trace.NodeID, 0, k)
		for _, idx := range perm {
			id := trace.NodeID(idx)
			if exclude[id] {
				continue
			}
			out = append(out, id)
			if len(out) == k {
				break
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("centrality: unknown placement %d", int(p))
	}
}
