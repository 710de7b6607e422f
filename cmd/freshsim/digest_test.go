package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"freshcache/internal/obs/store"
)

// TestReplicatedExperimentIDGolden pins replicatedExperimentID for a fixed
// argument list, read back from the two places it is persisted: the
// checkpoint journal's experiment field and the store record's config
// digest. The ID hashes every flag's name and Value.String() except the
// output and checkpointing ones, so registering a new flag on freshsim or
// changing how a flag prints would orphan every existing journal and split
// store history; this test fails first. Output flags with non-default
// values are passed on purpose: they must not move the ID.
func TestReplicatedExperimentIDGolden(t *testing.T) {
	const want = "freshsim-5e0debe6730bfe09"
	dir := t.TempDir()
	ckpt, sp := filepath.Join(dir, "ckpt.jsonl"), filepath.Join(dir, "store.jsonl")
	args := []string{"-preset", "infocom-like", "-items", "2", "-caching", "4", "-refresh", "4h",
		"-runs", "2", "-checkpoint", ckpt, "-store", sp,
		"-obs", filepath.Join(dir, "obs"), "-obs-sample", "3", "-lineage", "-timeline-tick", "1h"}
	if _, err := captureStdout(t, func() error { return run(args) }); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var rec struct{ Experiment string }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Experiment != want {
			t.Errorf("journal experiment ID = %q, want %q", rec.Experiment, want)
		}
	}
	recs, err := store.Read(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("store holds %d records, want 1", len(recs))
	}
	if got := "freshsim-" + recs[0].ConfigDigest; got != want {
		t.Errorf("store config digest = %q, want %q", got, want)
	}
}
