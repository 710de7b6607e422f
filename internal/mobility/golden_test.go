package mobility

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// generatorDigests pins the SHA-256 of trace.Write output at seed 1 for
// every entry of propertyGenerators. The property harness only proves a
// trace regenerates identically within one build; these digests prove it
// stays identical across changes to generation, sorting and
// serialization. rwp's Step-quantized starts exercise every tie-break of
// the (Start, A, B, End) order, and the "-sparse" entries cover both
// O(active-pairs) paths.
var generatorDigests = map[string]string{
	"community":           "7779f508e61bb6a1a25a396e9e0d91c78c1e00510e6a7e69f969fd7576ca14da",
	"community-sparse":    "89c907d208451b52cad5a1dd53ed6f06417d97530df1b80397d878be67c3aa18",
	"diurnal-community":   "d1c097eaeebc6557cdf78e6a1ad95c359bfddca433fe026c6b3b3c8d0d4430fa",
	"drifting":            "94612e0206f5edf428c5fb7dba771284e9c6c4f29be7e8f8db46b6f40cffa247",
	"hetexp":              "0cd8a4b1c32162b0c53d421103308ed4343220c5b4c69ed9b9bdd0863c7f3efb",
	"hetexp-sparse":       "fbab3606677070863ba5d346f3d38ae2b6b55bd0746b4b9e71be08632a21f59c",
	"preset-infocom-like": "6f0adef1193c84fda878b1c86002f5e7eb5bb8e59b47dbcb5a2c6201b9d4fcd9",
	"preset-reality-like": "d1c097eaeebc6557cdf78e6a1ad95c359bfddca433fe026c6b3b3c8d0d4430fa",
	"rwp":                 "d6dfe2951e6beeb6dc8d7086a275a58b27479e41469d7a53cfc482baa3034a19",
	"workingday":          "85774de0a9f621c4cb9f341cdafa9f579c181c2431627ff3517f801ac42e05d0",
}

func TestGeneratorDigestGolden(t *testing.T) {
	gens := propertyGenerators()
	if len(gens) != len(generatorDigests) {
		t.Errorf("%d generators, %d pinned digests", len(gens), len(generatorDigests))
	}
	for name, gen := range gens {
		gen := gen
		want := generatorDigests[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tr, err := gen.Generate(1)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(encode(t, tr))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("seed 1 digest = %s, want %s", got, want)
			}
		})
	}
}
