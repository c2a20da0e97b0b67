package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) *spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

// TestMetricListsMatchBenchmarkJSON pins the program's metric tables to
// BENCHMARK.json, name for name and unit for unit.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	s := loadSpec(t)
	check := func(kind string, want []metricDef, got map[string]string) {
		if len(want) != len(got) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(want), len(got))
		}
		for _, m := range want {
			if u, ok := got[m.name]; !ok || u != m.unit {
				t.Errorf("%s: %s [%s] in the program, [%s] in BENCHMARK.json", kind, m.name, m.unit, u)
			}
		}
	}
	e2e := map[string]string{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range s.PerLayer {
		layer[m.Name] = m.Unit
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer(), layer)
	for _, w := range s.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s in BENCHMARK.json has no implementation", w.Name)
		}
	}
}

// TestSmokeEveryWorkload runs every workload at a tiny size, untraced and
// traced, on two seeds, and checks that each prints every named metric
// with its unit, verifies its outputs, and gives every end-to-end metric a
// nonzero value.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ccserve and runs every workload")
	}
	s := loadSpec(t)
	bin := filepath.Join(t.TempDir(), "ccserve")
	if out, err := exec.Command("go", "build", "-o", bin, "ccolor/cmd/ccserve").CombinedOutput(); err != nil {
		t.Fatalf("build ccserve: %v\n%s", err, out)
	}
	for _, w := range s.Workloads {
		for _, seed := range []uint64{3, 4} {
			for _, trace := range []bool{false, true} {
				cfg := config{seed: seed, seconds: 0.2, trace: trace, ccserve: bin, nodes: 1 << 10, requests: 60}
				r, err := workloads[w.Name](cfg)
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v", w.Name, seed, trace, err)
				}
				b, err := json.Marshal(render(r, trace))
				if err != nil {
					t.Fatal(err)
				}
				var got result
				if err := json.Unmarshal(b, &got); err != nil {
					t.Fatal(err)
				}
				if !got.Correct || got.Attempted < 1 {
					t.Errorf("%s seed %d trace %v: correct=%v attempted=%d: %v",
						w.Name, seed, trace, got.Correct, got.Attempted, r.problems)
				}
				if w.Name != "serve-mix" && got.Failed != 0 {
					t.Errorf("%s seed %d: %d failed solves", w.Name, seed, got.Failed)
				}
				names := s.EndToEnd
				if trace {
					names = s.PerLayer
				}
				if len(got.Metrics) != len(names) {
					t.Errorf("%s trace %v: printed %d metrics, BENCHMARK.json names %d", w.Name, trace, len(got.Metrics), len(names))
				}
				for _, m := range names {
					v, ok := got.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s trace %v: %s not printed", w.Name, trace, m.Name)
					case v.Unit != m.Unit:
						t.Errorf("%s trace %v: %s printed in %q, want %q", w.Name, trace, m.Name, v.Unit, m.Unit)
					case !trace && v.Value <= 0:
						t.Errorf("%s seed %d: end-to-end %s = %v, want > 0", w.Name, seed, m.Name, v.Value)
					}
				}
			}
		}
	}
}
