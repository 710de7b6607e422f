package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"freshcache/internal/cache"
	"freshcache/internal/mobility"
	"freshcache/internal/trace"
)

// engineGoldenCase is one pinned engine configuration: a trace, a scheme
// and the query-resolution knobs that the quick suite leaves at their
// defaults.
type engineGoldenCase struct {
	name      string
	sparse    bool // the >1,024-node trace (sparse rate backing)
	scheme    string
	policy    cache.Policy
	timeout   float64
	relays    int
	knowledge KnowledgeMode
}

// engineGoldenDigests pins the SHA-256 of each case's result (wall clock
// zeroed), its full query log and the delegation load. The cases cover the
// resolution paths the quick-suite digests do not: query timeouts (the
// query book prunes as a side effect), query delegation, and capacity-bound
// LRU and LFU stores (serving a query is a store use, so the order of
// lookups changes eviction), on a dense preset and on a sparse large-N
// trace.
var engineGoldenDigests = map[string]string{
	"dense/hier-lru-timeout":          "7eaad0a5249fce117e136fa6a370e6831f024d7429de1af441e2d826d6e6c6b4",
	"dense/hier-lfu-relays":           "b2aa12caea0a701b98f582eae1948fe49c2888733d866fa171c7b31b3a354cad",
	"dense/direct-lru-relays-timeout": "38a71f8c167eeb1d8a0c6a6af04a917d8196da07f95570d016f1bfb03f3b6243",
	"dense/hier-distributed":          "a22d7ec1357c9c773de8b975587f17b4bd9f972b338f8685f0483cbab739bb23",
	"sparse/hier-lru-timeout":         "3580923ae35015ee4a735533bb54c9d8f2751bbb8707d65984dfbc5451167902",
	"sparse/hier-lfu-relays-timeout":  "80a25551e2ce518cda8fd59f3672af10d61a2a7242ffad7a9fa7d31249ebe1e4",
	"sparse/direct-rep-lru-relays":    "122521564dda878eb7a5d31ba59af1308f3a6b5a28961067ed86ff6e8e6ca006",
}

var engineGoldenCases = []engineGoldenCase{
	{name: "dense/hier-lru-timeout", scheme: "hierarchical", policy: cache.EvictLRU, timeout: 6 * mobility.Hour},
	{name: "dense/hier-lfu-relays", scheme: "hierarchical", policy: cache.EvictLFU, relays: 2},
	{name: "dense/direct-lru-relays-timeout", scheme: "direct", policy: cache.EvictLRU, timeout: 3 * mobility.Hour, relays: 3},
	{name: "dense/hier-distributed", scheme: "hierarchical", policy: cache.EvictLFU, timeout: 8 * mobility.Hour, knowledge: KnowledgeDistributed},
	{name: "sparse/hier-lru-timeout", sparse: true, scheme: "hierarchical", policy: cache.EvictLRU, timeout: 6 * mobility.Hour},
	{name: "sparse/hier-lfu-relays-timeout", sparse: true, scheme: "hierarchical", policy: cache.EvictLFU, timeout: 12 * mobility.Hour, relays: 2},
	{name: "sparse/direct-rep-lru-relays", sparse: true, scheme: "direct-rep", policy: cache.EvictLRU, relays: 1},
}

// engineGoldenTrace returns the dense preset or the sparse large-N trace.
func engineGoldenTrace(t *testing.T, sparse bool) *trace.Trace {
	t.Helper()
	var g mobility.Generator = mobility.InfocomLike()
	if sparse {
		g = mobility.ScaledCommunity(1100)
	}
	tr, err := g.Generate(5)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// runEngineGolden runs one case and returns its digest.
func runEngineGolden(t *testing.T, c engineGoldenCase, tr *trace.Trace) string {
	t.Helper()
	refresh, k := 4*mobility.Hour, 8
	if c.sparse {
		// The large-N operating point of E21: inter-community delays make
		// a 4 h window infeasible at this scale.
		refresh, k = 12*mobility.Hour, 32
	}
	items := make([]cache.Item, 4)
	for i := range items {
		items[i] = cache.Item{
			ID: cache.ItemID(i), Source: trace.NodeID(3 * i), RefreshInterval: refresh,
			Phase: float64(i) * refresh / 4, FreshnessWindow: refresh, Lifetime: 2 * refresh, Size: 1,
		}
	}
	cat, err := cache.NewCatalog(items)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SchemeByName(c.scheme)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(Config{
		Trace:           tr,
		Catalog:         cat,
		Scheme:          s,
		NumCachingNodes: k,
		CacheCapacity:   2, // fewer slots than items: every served query moves eviction state
		CachePolicy:     c.policy,
		Workload:        cache.WorkloadConfig{QueryRate: 1.0 / (3 * mobility.Hour), ZipfExponent: 0.8, Timeout: c.timeout},
		QueryRelays:     c.relays,
		Knowledge:       c.knowledge,
		Seed:            9,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	res.WallClockSeconds = 0
	h := sha256.New()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(b)
	for _, q := range eng.book.All() {
		fmt.Fprintf(h, "\n%d %d %d %v %v %v %d %v %v %v", q.ID, q.Requester, q.Item, q.IssuedAt,
			q.Served, q.ServedAt, q.ServedVersion, q.ServedGeneratedAt, q.Fresh, q.Valid)
	}
	fmt.Fprintf(h, "\n%v", eng.DelegationLoad())
	return hex.EncodeToString(h.Sum(nil))
}

// TestEngineDigestGolden: query resolution, delegation and eviction must
// stay byte-identical across changes to how the engine finds providers,
// selects caching nodes and plans relays.
func TestEngineDigestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulations on a 1,100-node trace")
	}
	traces := map[bool]*trace.Trace{}
	for _, c := range engineGoldenCases {
		tr := traces[c.sparse]
		if tr == nil {
			tr = engineGoldenTrace(t, c.sparse)
			traces[c.sparse] = tr
		}
		got := runEngineGolden(t, c, tr)
		if want := engineGoldenDigests[c.name]; got != want {
			t.Errorf("%s: digest %s, want %s", c.name, got, want)
		}
	}
}
