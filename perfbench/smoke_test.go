package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmokeEveryMetric runs every workload at a tiny size, untraced and
// traced, including those BENCHMARK.json does not list, and checks that
// each puts every metric BENCHMARK.json names for that mode in its result
// line, and nothing else; untraced runs also print every ungated metric.
func TestSmokeEveryMetric(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, sw := range spec.Workloads {
		if _, ok := workloadByName(sw.Name); !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", sw.Name)
		}
	}
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			missing := map[string]bool{}
			for name := range ungated {
				missing[name] = true
			}
			res, err := run(config{w: w, seed: 1, seconds: 0.4, trace: traced, out: out, scale: 0.01, rounds: 2})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.correct || res.attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d", w.name, traced, res.correct, res.attempted)
			}
			got := map[string]string{}
			for _, m := range res.metrics {
				if m.ungated {
					delete(missing, m.name)
					continue
				}
				got[m.name] = m.unit
			}
			if !traced && len(missing) > 0 {
				t.Errorf("%s: ungated metrics not printed: %v", w.name, missing)
			}
			for _, m := range want {
				unit, ok := got[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not printed", w.name, traced, m.Name)
				} else if unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w.name, traced, m.Name, unit, m.Unit)
				}
				delete(got, m.Name)
			}
			for name := range got {
				t.Errorf("%s trace=%v: metric %s printed but not in BENCHMARK.json", w.name, traced, name)
			}
		}
	}
	if ents, err := os.ReadDir(filepath.Join(out, "runs")); err != nil || len(ents) != 0 {
		t.Errorf("run directories left behind: %v %v", ents, err)
	}
}
