package runflags

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSharedFlagsInBothCLIs runs every shared-flag rejection and both
// -timeline-tick spellings through the experiments and freshsim commands
// built from this checkout. Both declare the flags through this package,
// so both must reject the same misuse and export the same timeline for
// "3600" and "1h".
func TestSharedFlagsInBothCLIs(t *testing.T) {
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := t.TempDir()
	build := exec.Command(gotool, "build", "-o", bin, "freshcache/cmd/experiments", "freshcache/cmd/freshsim")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the commands: %v\n%s", err, out)
	}
	for _, cli := range []struct {
		name string
		base []string // a cheap, otherwise valid invocation that simulates
	}{
		{"experiments", []string{"-run", "E2", "-quick"}},
		{"freshsim", []string{"-preset", "infocom-like", "-items", "2", "-caching", "4"}},
	} {
		run := func(extra ...string) (stderr string, err error) {
			cmd := exec.Command(filepath.Join(bin, cli.name), append(append([]string{}, cli.base...), extra...)...)
			var buf bytes.Buffer
			cmd.Stderr = &buf
			err = cmd.Run()
			return buf.String(), err
		}
		for _, c := range []struct {
			name string
			args []string
			want string // substring of the rejection
		}{
			{"obs-sample 0", []string{"-obs", t.TempDir(), "-obs-sample", "0"}, "obs-sample must be >= 1"},
			{"resume without checkpoint", []string{"-resume"}, "-resume requires -checkpoint"},
			{"lineage without obs", []string{"-lineage"}, "require -obs"},
			{"timeline-tick without obs", []string{"-timeline-tick", "1h"}, "require -obs"},
			{"malformed timeline-tick", []string{"-obs", t.TempDir(), "-timeline-tick", "soon"}, "invalid value \"soon\" for flag -timeline-tick"},
		} {
			t.Run(cli.name+"/rejects "+c.name, func(t *testing.T) {
				stderr, err := run(c.args...)
				if err == nil || !strings.Contains(stderr, c.want) {
					t.Errorf("args %v: err = %v, stderr %q; want a rejection containing %q", c.args, err, stderr, c.want)
				}
			})
		}
		t.Run(cli.name+"/timeline-tick 3600 and 1h agree", func(t *testing.T) {
			var timelines [][]byte
			for _, tick := range []string{"3600", "1h"} {
				dir := filepath.Join(t.TempDir(), "obs")
				if stderr, err := run("-obs", dir, "-timeline-tick", tick); err != nil {
					t.Fatalf("-timeline-tick %s: %v\n%s", tick, err, stderr)
				}
				b, err := os.ReadFile(filepath.Join(dir, "timeline.csv"))
				if err != nil {
					t.Fatal(err)
				}
				if bytes.Count(b, []byte("\n")) < 2 {
					t.Fatalf("-timeline-tick %s: timeline.csv holds no samples:\n%s", tick, b)
				}
				timelines = append(timelines, b)
			}
			if !bytes.Equal(timelines[0], timelines[1]) {
				t.Error("timeline.csv differs between -timeline-tick 3600 and 1h")
			}
		})
	}
}
