package expt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"freshcache/internal/metrics"
	"freshcache/internal/obs"
)

// quickSuiteDigests pins, per experiment, the SHA-256 of every table's CSV
// followed by the run-stats totals (runs, events, transmissions) and kind
// counts of the quick suite at seed 42 with observability off. The
// determinism tests only prove a run reproduces within one build; these
// digests prove the tables and the run accounting stay identical across
// changes to how experiments build and run their engines.
var quickSuiteDigests = map[string]string{
	"E1":  "b8ad1e8d9bba90773d80a4e3f02cfce5dec226bafa687ecbcef80e56ac517df9",
	"E2":  "608bcfd0f391bc33b20985225a9c38660b5b69114a2c9fc27d59d8d0b1efa825",
	"E3":  "2e37de49f6f4b0f7f1c796f57c3ca0c3b1d738ced1440bb496da12c5fc54f10c",
	"E4":  "c8a76a4d7807fa78512204961e89dc81377086d3365da46e6e84e59415796c6d",
	"E5":  "0c352cb6f80fc5a16f19079e0ce0fc4ea03ba945e50d51d418053f0964476590",
	"E6":  "f36a477f667314d9ec40dff7dccfad0ba07a7e75aa3b97af7b0969c6a5b5855a",
	"E7":  "d8228bb27fa76202c28350f511bdb045dc5d82305c1c84bc643dd5590d676dea",
	"E8":  "e6d0af21e51f4aeffe730845e843c068a608fe85a6c5e1c1f9da106322056982",
	"E9":  "3db9049fce85ed155f01441e2cda24b08b2a937cf2a2afb9e8f749165100e45b",
	"E10": "69d162a19500ec73db5097da7fc6f7bac42580102139749e58c0c63efa281f8d",
	"E11": "b184f11d88fbc7265ac3ff2d583a23c7701c34392ed30dc28f7e7ed700b88f6a",
	"E12": "f6b5862c3d6cbb11489140d03b876e20758d5f1618083806aa3c1d6092e8e07e",
	"E13": "22d25b0f3d5e2704500a9d01a3fa7d638fe7ccfb2d65b65c2d599a299d5dedbf",
	"E14": "c13b63799537067c59876cdcd8ee1ff1f0eb9a8916f735c98d31c022fe619205",
	"E15": "128f60ef12be66c1f21fd498e45d1ac15b9916c937d90a22dab25701f540cbf3",
	"E16": "5308792f76d60eba7d61fa471b553f39f8085112038d69d5d3a76a0ac74ca6e9",
	"E17": "986f3af88c9d364d70eab79c2b63d291ca198ca00d1ceccf637a1a2578bcd84c",
	"E18": "117880931c1918a5ee9ee018ea79928032a57de2f5750ebf05d802eee9bc9f5c",
	"E19": "dd20dba81710a935e66b718435239b77b9e9ccf84275ef684a15553d50a19348",
	"E20": "0386fea4f2dc7f6504f9097242dd92439bb40923af99068baf81770ee55c11da",
}

// quickE2ObsDigests pins the SHA-256 of each observability export of the
// quick E2 sweep at seed 42 with events sampled 1 in 4, lineage on and a
// one-hour timeline tick.
var quickE2ObsDigests = map[string]string{
	"events":     "b1f16adb3522aa2edbe2dbd9c56e6ee761d253793cfe7680ec03dd2136f7444c",
	"lineage":    "2f2c99a46f338e01275bb5668abb8166ac511599d763a9ae61e1e1601400fa9f",
	"metrics.om": "4824f79da1914f1584ce23adbc154ef3704ded22546e6b28c7ed926902831a24",
	"timeline":   "e76490c3f8d08caadbbfb9feff55353ac8fa3d2aa74bd38f1eece94c967d51c5",
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// suiteDigest hashes an experiment's tables and its run-stats totals.
func suiteDigest(tables []*Table, rs *metrics.RunStats) string {
	h := sha256.New()
	for _, tb := range tables {
		io.WriteString(h, tb.CSV())
	}
	fmt.Fprintln(h, rs.Runs(), rs.Events(), rs.Transmissions())
	for _, kc := range rs.KindCounts() {
		fmt.Fprintln(h, kc.Kind, kc.Count)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestQuickSuiteDigestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick suite E1-E20")
	}
	for _, e := range All() {
		if e.ID == "E21" {
			continue // large-N smoke run, pinned by its own tests
		}
		rs := metrics.NewRunStats()
		tables, err := e.Run(Options{Seed: 42, Quick: true, Parallel: 4, Stats: rs})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if got, want := suiteDigest(tables, rs), quickSuiteDigests[e.ID]; got != want {
			t.Errorf("%s digest = %s, want %s", e.ID, got, want)
		}
	}

	e2, err := ByID("E2")
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver(obs.Config{SampleEvery: 4, Lineage: true, TimelineTick: 3600})
	if _, err := e2.Run(Options{Seed: 42, Quick: true, Parallel: 4, Obs: o}); err != nil {
		t.Fatal(err)
	}
	for name, write := range map[string]func(io.Writer) error{
		"events":     o.WriteJSONL,
		"lineage":    o.WriteLineageJSONL,
		"timeline":   o.WriteTimelineCSV,
		"metrics.om": func(w io.Writer) error { return obs.WriteOpenMetrics(w, o.Registry().Snapshot()) },
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("E2 %s export: %v", name, err)
		}
		if got, want := sha(buf.Bytes()), quickE2ObsDigests[name]; got != want {
			t.Errorf("E2 %s digest = %s, want %s", name, got, want)
		}
	}
}
