package centrality

import (
	"fmt"
	"sort"

	"freshcache/internal/trace"
)

// MaxDenseNodes is the largest node count for which a dense n×n float64
// rate matrix (or n×n int count matrix) may be allocated: 8192 nodes is a
// 512 MiB matrix, already past the point where the sparse backing wins.
// Constructors that would exceed it return a *SizeError instead of
// attempting the allocation.
const MaxDenseNodes = 8192

// AutoSparseThreshold is the node count above which BackingAuto switches
// from the dense flat matrix to sorted per-node neighbor lists. Below it
// the dense form is both faster (direct indexing) and small enough not to
// matter (1024 nodes = 8 MiB).
//
// Both backings stay, each on its side of this switch. Forcing sparse at
// every size kept every tier-1 test and the benchmark's seed-1 golden
// digests passing, but regressed the deterministic -benchjson -seed 42
// gates past their CI margins: e2AllocsPerOp 41,972 → 47,771 (+13.8%,
// margin 5%), e2BytesPerOp 8.23 → 10.58 MB (+28.5%, margin 10%) and
// allocsPerContact 0.2417 → 0.2478 (+2.5%, margin 2%). Over 6 alternating
// benchmark pairs it was also slower on the dense-side workloads:
// quick-suite allocs_per_op +3.6% and wall_s +5.1%, api-cold op_ms_p50
// +7.9%. Above the threshold sparse is required (the large-n workload).
const AutoSparseThreshold = 1024

// SizeError reports a node count for which a dense n×n structure was
// refused because the allocation would be absurd (or overflow). Callers
// that legitimately need such sizes should request BackingSparse.
type SizeError struct {
	Op string // constructor that refused
	N  int    // requested node count
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("centrality: %s: %d nodes would need an n*n allocation beyond the dense ceiling of %d; use the sparse backing",
		e.Op, e.N, MaxDenseNodes)
}

// checkDense validates a node count for a dense n×n allocation.
func checkDense(op string, n int) error {
	if n <= 0 {
		return fmt.Errorf("centrality: %s: non-positive node count %d", op, n)
	}
	if n > MaxDenseNodes {
		return &SizeError{Op: op, N: n}
	}
	return nil
}

// RateStore is the writable rate-view surface shared by the dense
// RateMatrix and the sparse SparseRates: symmetric pairwise rates with a
// snapshot epoch. core, NCL selection and the replication-plan memo work
// on this interface and are agnostic to the backing.
type RateStore interface {
	RateView
	Epoched
	// Set records the contact rate for the unordered pair (a, b).
	Set(a, b trace.NodeID, rate float64)
}

// NeighborVisitor is implemented by rate views that can enumerate a
// node's nonzero-rate neighbors in ascending ID order without touching
// the zero pairs. Scores and SelectCachingNodes use it as an O(degree)
// fast path; since ExpCDF(0, w) is exactly 0, skipping zero-rate pairs is
// bit-identical to the dense full loop.
type NeighborVisitor interface {
	// VisitNeighbors calls f for each b with Rate(a, b) > 0, in ascending
	// b order.
	VisitNeighbors(a trace.NodeID, f func(b trace.NodeID, rate float64))
}

// Backing selects the representation of rate and count structures.
type Backing int

const (
	// BackingAuto picks dense below AutoSparseThreshold nodes and sparse
	// above — the default everywhere.
	BackingAuto Backing = iota
	// BackingDense forces the flat n×n matrix (refused above
	// MaxDenseNodes).
	BackingDense
	// BackingSparse forces sorted per-node neighbor lists.
	BackingSparse
)

// String implements fmt.Stringer.
func (b Backing) String() string {
	switch b {
	case BackingAuto:
		return "auto"
	case BackingDense:
		return "dense"
	case BackingSparse:
		return "sparse"
	default:
		return fmt.Sprintf("backing(%d)", int(b))
	}
}

// resolve maps BackingAuto to a concrete backing for n nodes.
func (b Backing) resolve(n int) Backing {
	if b == BackingAuto {
		if n > AutoSparseThreshold {
			return BackingSparse
		}
		return BackingDense
	}
	return b
}

// NewRateStore returns an empty rate store for n nodes in the requested
// backing.
func NewRateStore(n int, b Backing) (RateStore, error) {
	switch b.resolve(n) {
	case BackingSparse:
		return NewSparseRates(n)
	default:
		return NewRateMatrix(n)
	}
}

// rateEntry is one neighbor of a node in the sparse representation.
type rateEntry struct {
	id   trace.NodeID
	rate float64
}

// SparseRates holds symmetric pairwise contact rates as sorted per-node
// neighbor lists: memory and iteration are O(nodes + observed pairs)
// instead of O(n²). It implements the same Rate/Set/Epoch surface as
// RateMatrix, so every consumer works unchanged on either backing.
type SparseRates struct {
	n     int
	epoch uint64
	nbr   [][]rateEntry
}

// NewSparseRates returns an empty sparse rate store for n nodes.
func NewSparseRates(n int) (*SparseRates, error) {
	if n <= 0 {
		return nil, fmt.Errorf("centrality: NewSparseRates: non-positive node count %d", n)
	}
	return &SparseRates{n: n, epoch: matrixEpochs.Add(1), nbr: make([][]rateEntry, n)}, nil
}

// N returns the number of nodes.
func (s *SparseRates) N() int { return s.n }

// Epoch implements Epoched: the store's snapshot identity, assigned at
// construction.
func (s *SparseRates) Epoch() uint64 { return s.epoch }

// Rate returns the contact rate of the pair (a, b); zero for pairs that
// never meet and for a == b.
func (s *SparseRates) Rate(a, b trace.NodeID) float64 {
	if a == b {
		return 0
	}
	row := s.nbr[a]
	i := sort.Search(len(row), func(i int) bool { return row[i].id >= b })
	if i < len(row) && row[i].id == b {
		return row[i].rate
	}
	return 0
}

// Set records the contact rate for the unordered pair (a, b), keeping
// both endpoints' neighbor lists sorted.
func (s *SparseRates) Set(a, b trace.NodeID, rate float64) {
	if a == b {
		return
	}
	s.setHalf(a, b, rate)
	s.setHalf(b, a, rate)
}

func (s *SparseRates) setHalf(a, b trace.NodeID, rate float64) {
	row := s.nbr[a]
	i := sort.Search(len(row), func(i int) bool { return row[i].id >= b })
	if i < len(row) && row[i].id == b {
		row[i].rate = rate
		return
	}
	row = append(row, rateEntry{})
	copy(row[i+1:], row[i:])
	row[i] = rateEntry{id: b, rate: rate}
	s.nbr[a] = row
}

// VisitNeighbors implements NeighborVisitor: f sees every neighbor of a
// with a nonzero rate, in ascending ID order.
func (s *SparseRates) VisitNeighbors(a trace.NodeID, f func(b trace.NodeID, rate float64)) {
	for _, e := range s.nbr[a] {
		if e.rate != 0 {
			f(e.id, e.rate)
		}
	}
}

// Pairs returns the number of stored (unordered) pairs — a diagnostic for
// memory accounting and the no-n² test assertions.
func (s *SparseRates) Pairs() int {
	total := 0
	for _, row := range s.nbr {
		total += len(row)
	}
	return total / 2
}

var (
	_ RateStore       = (*SparseRates)(nil)
	_ NeighborVisitor = (*SparseRates)(nil)
	_ RateStore       = (*RateMatrix)(nil)
	_ NeighborVisitor = (*RateMatrix)(nil)
)

// VisitNeighbors implements NeighborVisitor for the dense matrix: a row
// scan that skips zero entries, in ascending ID order.
func (m *RateMatrix) VisitNeighbors(a trace.NodeID, f func(b trace.NodeID, rate float64)) {
	row := m.rates[int(a)*m.n : (int(a)+1)*m.n]
	for b, r := range row {
		if r != 0 && b != int(a) {
			f(trace.NodeID(b), r)
		}
	}
}

// emptyView is an allocation-free all-zero RateView. It is deliberately
// not Epoched: consumers treat it as uncacheable, so a transient fallback
// never poisons a plan memo.
type emptyView int

func (v emptyView) N() int                          { return int(v) }
func (v emptyView) Rate(a, b trace.NodeID) float64  { return 0 }
func (v emptyView) VisitNeighbors(a trace.NodeID, f func(b trace.NodeID, rate float64)) {
}

// EmptyView returns an allocation-free RateView over n nodes in which no
// pair ever meets. It replaces the old fallback of allocating a zero n×n
// matrix when no rate knowledge is available yet.
func EmptyView(n int) RateView { return emptyView(n) }

// CountSnapshot is an immutable copy of an Estimator's pairwise contact
// counts, in whichever backing the estimator uses. Snapshots taken from
// the same estimator are totally ordered: counts only grow.
type CountSnapshot struct {
	n      int
	dense  []int
	sparse map[int]int // trace.PairKey(a,b,n) → count
}

// N returns the node count the snapshot covers (0 for a zero snapshot).
func (c CountSnapshot) N() int { return c.n }

// RatesBetweenSnapshots computes the rate store from the growth between
// two count snapshots over an observation window — the backing-agnostic
// form of RatesBetween used by periodic hierarchy rebuilds.
func RatesBetweenSnapshots(before, after CountSnapshot, window float64) (RateStore, error) {
	if window <= 0 {
		return nil, fmt.Errorf("centrality: non-positive window %v", window)
	}
	if before.n != after.n {
		return nil, fmt.Errorf("centrality: snapshot node counts differ (%d vs %d)", before.n, after.n)
	}
	if after.sparse != nil {
		if before.dense != nil {
			return nil, fmt.Errorf("centrality: snapshot backings differ (dense before, sparse after)")
		}
		s, err := NewSparseRates(after.n)
		if err != nil {
			return nil, err
		}
		n := after.n
		// Deterministic iteration (and deterministic errors): visit pair
		// keys in ascending order.
		keys := make([]int, 0, len(after.sparse))
		for k := range after.sparse {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			d := after.sparse[k] - before.sparse[k]
			if d < 0 {
				return nil, fmt.Errorf("centrality: snapshot went backwards at pair (%d,%d)", k/n, k%n)
			}
			if d > 0 {
				s.Set(trace.NodeID(k/n), trace.NodeID(k%n), float64(d)/window)
			}
		}
		for k, v := range before.sparse {
			if after.sparse[k] < v {
				return nil, fmt.Errorf("centrality: snapshot went backwards at pair (%d,%d)", k/n, k%n)
			}
		}
		return s, nil
	}
	if before.sparse != nil {
		return nil, fmt.Errorf("centrality: snapshot backings differ (sparse before, dense after)")
	}
	m, err := RatesBetween(before.dense, after.dense, after.n, window)
	if err != nil {
		return nil, err
	}
	return m, nil
}
