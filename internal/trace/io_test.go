package trace

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	orig := validTrace()
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || got.N != orig.N || got.Duration != orig.Duration {
		t.Fatalf("header mismatch: %+v vs %+v", got, orig)
	}
	if len(got.Contacts) != len(orig.Contacts) {
		t.Fatalf("contact count %d vs %d", len(got.Contacts), len(orig.Contacts))
	}
	for i := range got.Contacts {
		if got.Contacts[i] != orig.Contacts[i] {
			t.Fatalf("contact %d: %+v vs %+v", i, got.Contacts[i], orig.Contacts[i])
		}
	}
}

func TestReadInfersHeader(t *testing.T) {
	in := "0 1 5 10\n2 1 20 25\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.N != 3 {
		t.Fatalf("inferred N = %d, want 3", tr.N)
	}
	if tr.Duration != 25 {
		t.Fatalf("inferred duration = %v, want 25", tr.Duration)
	}
	// 2 1 must have been normalized to 1 2.
	if tr.Contacts[1].A != 1 || tr.Contacts[1].B != 2 {
		t.Fatalf("not normalized: %+v", tr.Contacts[1])
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# a plain comment\n\n# nodes: 5\n0 1 1 2\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.N != 5 || len(tr.Contacts) != 1 {
		t.Fatalf("got N=%d contacts=%d", tr.N, len(tr.Contacts))
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []struct {
		in   string
		want error // nil: any error
	}{
		{"0 1 1\n", ErrFormat},    // too few fields
		{"x 1 1 2\n", nil},        // non-numeric node
		{"0 y 1 2\n", nil},        // non-numeric node
		{"0 1 z 2\n", nil},        // non-numeric time
		{"0 1 1 z\n", nil},        // non-numeric time
		{"# nodes: bogus\n", nil}, // bad header value
		{"0 0 1 2\n", nil},        // self contact -> validate fails
		// Non-finite times. Comparisons with NaN are false, so the
		// ordering check alone would let the last input through.
		{"0 1 NaN 5\n0 2 1 2\n", ErrNonFinite},
		{"0 1 1 +Inf\n", ErrNonFinite},
		{"# duration: NaN\n0 1 1 2\n", ErrNonFinite},
		{"0 1 2 3\n0 2 NaN 1\n0 3 1 2\n", ErrNonFinite},
	}
	for _, tc := range cases {
		_, err := Read(strings.NewReader(tc.in))
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Errorf("Read(%q) = %v, want error %v", tc.in, err, tc.want)
		}
	}
}

func TestReadWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.contacts")
	if err := WriteFile(path, validTrace()); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.N != 4 || len(tr.Contacts) != 4 {
		t.Fatalf("round trip: %+v", tr)
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing file accepted")
	}
}
