package trace

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// referenceNormalize is the specification Normalize is checked against:
// canonical endpoints, then a library sort on the full (Start, A, B, End)
// key.
func referenceNormalize(cs []Contact) []Contact {
	out := slices.Clone(cs)
	for i := range out {
		if out[i].A > out[i].B {
			out[i].A, out[i].B = out[i].B, out[i].A
		}
	}
	slices.SortFunc(out, func(a, b Contact) int {
		return cmp.Or(
			cmp.Compare(a.Start, b.Start),
			cmp.Compare(a.A, b.A),
			cmp.Compare(a.B, b.B),
			cmp.Compare(a.End, b.End),
		)
	})
	return out
}

// checkNormalize runs Normalize on a copy of cs and compares it with the
// reference contact for contact.
func checkNormalize(t *testing.T, cs []Contact) {
	t.Helper()
	want := referenceNormalize(cs)
	tr := &Trace{N: 1 << 20, Duration: 1e9, Contacts: slices.Clone(cs)}
	tr.Normalize()
	if !slices.Equal(tr.Contacts, want) {
		t.Fatalf("Normalize differs from the reference sort on %d contacts\n got %v\nwant %v", len(cs), tr.Contacts, want)
	}
}

// generatorOrder mimics a pairwise generator: one time-ordered run per
// pair, pairs in (a, b) order. With step > 0, starts are quantized to
// multiples of step, as a tick-based generator emits them, so runs tie.
func generatorOrder(rng *rand.Rand, pairs, perPair int, step float64) []Contact {
	var cs []Contact
	for p := 0; p < pairs; p++ {
		a, b := NodeID(p/7), NodeID(p/7+1+p%7)
		t := 0.0
		for k := rng.Intn(perPair + 1); k > 0; k-- {
			t += 1 + rng.Float64()*100
			if step > 0 {
				t = float64(int(t/step)+1) * step
			}
			cs = append(cs, Contact{A: a, B: b, Start: t, End: t + 1 + rng.Float64()*10})
		}
	}
	return cs
}

// normalizeInputs returns the input shapes Normalize must handle: empty,
// single, sorted, reversed, generator-order runs, tied starts, exact
// duplicates, swapped endpoints, and contacts that differ only in End.
func normalizeInputs(rng *rand.Rand) map[string][]Contact {
	gen := generatorOrder(rng, 40, 12, 0)
	tied := generatorOrder(rng, 40, 12, 5)
	sorted := referenceNormalize(gen)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	dups := slices.Clone(gen)
	for i := 0; i < len(gen)/3; i++ {
		c := gen[rng.Intn(len(gen))]
		at := rng.Intn(len(dups) + 1)
		dups = slices.Insert(dups, at, c)
	}
	swapped := slices.Clone(tied)
	for i := range swapped {
		if rng.Intn(2) == 0 {
			swapped[i].A, swapped[i].B = swapped[i].B, swapped[i].A
		}
	}
	shuffled := slices.Clone(tied)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	endTies := slices.Clone(tied)
	for i := 0; i < len(tied)/3; i++ {
		c := tied[rng.Intn(len(tied))]
		c.End += 1 + rng.Float64()
		endTies = slices.Insert(endTies, rng.Intn(len(endTies)+1), c)
	}
	return map[string][]Contact{
		"empty":           nil,
		"single":          {{A: 3, B: 1, Start: 2, End: 4}},
		"sorted":          sorted,
		"reversed":        reversed,
		"generator-order": gen,
		"tied-starts":     tied,
		"duplicates":      dups,
		"swapped":         swapped,
		"shuffled":        shuffled,
		"end-ties":        endTies,
	}
}

// TestNormalizeMatchesReference is the property test of the merge sort:
// on every input shape, across seeds, Normalize equals the reference.
func TestNormalizeMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for name, cs := range normalizeInputs(rng) {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				checkNormalize(t, cs)
			})
		}
	}
}

// TestNormalizeSortedNoAlloc pins the fast path: sorted input (file
// replays, round-trips) is one run and allocates nothing.
func TestNormalizeSortedNoAlloc(t *testing.T) {
	cs := referenceNormalize(generatorOrder(rand.New(rand.NewSource(1)), 40, 12, 5))
	tr := &Trace{N: 64, Duration: 1e9, Contacts: cs}
	if allocs := testing.AllocsPerRun(100, tr.Normalize); allocs != 0 {
		t.Fatalf("Normalize on sorted input allocated %v times per run", allocs)
	}
}

// FuzzNormalize decodes arbitrary bytes into contacts over a few nodes
// and small integer times, so ties, duplicates, swapped endpoints and
// short runs are common, and compares Normalize with the reference.
func FuzzNormalize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 3, 1})
	f.Add([]byte{0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 2})
	f.Add([]byte{0, 1, 9, 0, 0, 1, 4, 0, 0, 2, 4, 0, 2, 3, 1, 3})
	f.Add([]byte{0, 1, 3, 2, 0, 1, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var cs []Contact
		for ; len(data) >= 4; data = data[4:] {
			start := float64(data[2] % 32)
			cs = append(cs, Contact{
				A:     NodeID(data[0] % 6),
				B:     NodeID(data[1] % 6),
				Start: start,
				End:   start + 1 + float64(data[3]%4),
			})
		}
		checkNormalize(t, cs)
	})
}

// BenchmarkNormalize times Normalize on a generator-sized trace in
// generator order (one run per pair), already sorted, and with
// tick-quantized tied starts.
func BenchmarkNormalize(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	gen := generatorOrder(rng, 3000, 60, 0)
	inputs := []struct {
		name string
		cs   []Contact
	}{
		{"generator-order", gen},
		{"sorted", referenceNormalize(gen)},
		{"tied", generatorOrder(rng, 3000, 60, 5)},
	}
	for _, in := range inputs {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			tr := &Trace{N: 1 << 20, Duration: 1e9}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tr.Contacts = append(tr.Contacts[:0], in.cs...)
				b.StartTimer()
				tr.Normalize()
			}
		})
	}
}
