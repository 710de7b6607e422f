package main

import (
	"path/filepath"
	"testing"

	"freshcache/internal/obs/store"
)

// TestStoreConfigDigestGolden pins the config digest experiments -store
// writes for a fixed argument list. Store history is filtered to
// comparable runs by this digest, so a change to it splits every trend
// and gate series. Execution-policy flags with non-default values are
// passed on purpose: they must not move the digest.
func TestStoreConfigDigestGolden(t *testing.T) {
	const want = "72f40ea629843d5f"
	sp := filepath.Join(t.TempDir(), "store.jsonl")
	args := []string{"-run", "E1", "-quick", "-store", sp,
		"-parallel", "2", "-retries", "1", "-checkpoint", filepath.Join(t.TempDir(), "ckpt.jsonl")}
	if _, err := captureStdout(t, func() error { return run(args) }); err != nil {
		t.Fatal(err)
	}
	recs, err := store.Read(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("store holds %d records, want 1", len(recs))
	}
	if got := recs[0].ConfigDigest; got != want {
		t.Errorf("store config digest = %q, want %q", got, want)
	}
}
