package runflags

import "testing"

func TestTickSet(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Tick
	}{
		{"3600", 3600}, {"1h", 3600}, {"1.5", 1.5}, {"90s", 90}, {"0", 0},
		{"-1", -1}, {"-1h", -3600}, // negative: the engine's automatic tick
	} {
		var tick Tick
		if err := tick.Set(c.in); err != nil || tick != c.want {
			t.Errorf("Set(%q) = %v, %v; want %v", c.in, tick, err, c.want)
		}
	}
	for _, in := range []string{"", "soon", "1x", "h"} {
		var tick Tick
		if err := tick.Set(in); err == nil {
			t.Errorf("Set(%q) accepted", in)
		}
	}
}
