package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// has reports whether m holds the declared metric. A short run has too
// few samples for the declared tail percentile, so a tail metric
// matches any percentile of the same quantity.
func has(m metrics, name string) bool {
	if _, ok := m[name]; ok {
		return true
	}
	i := strings.LastIndex(name, "_p")
	j := strings.LastIndex(name, "_")
	if i < 0 || j <= i || strings.HasPrefix(name[i:], "_p50_") {
		return false
	}
	for k := range m {
		if strings.HasPrefix(k, name[:i+2]) && strings.HasSuffix(k, name[j:]) && !strings.HasPrefix(k[i:], "_p50_") {
			return true
		}
	}
	return false
}

// TestSmoke runs every workload briefly and checks that it passes its
// own correctness gates and reports every declared end-to-end metric,
// then runs one traced workload and checks every declared per-layer
// metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take about a minute")
	}
	d := readDeclared(t)
	for _, wl := range d.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			res, report, err := run(wl.Name, 3, 4*time.Second, false, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("run not correct:\n%s", strings.Join(report, "\n"))
			}
			for _, m := range d.EndToEnd {
				if !has(res.Metrics, m.Name) {
					t.Errorf("missing end-to-end metric %s", m.Name)
				}
			}
		})
	}
	t.Run("trace", func(t *testing.T) {
		res, report, err := run("protect", 4, 3*time.Second, true, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("traced run not correct:\n%s", strings.Join(report, "\n"))
		}
		for _, m := range d.PerLayer {
			if !has(res.Metrics, m.Name) {
				t.Errorf("missing per-layer metric %s", m.Name)
			}
		}
		if len(res.Metrics) != len(d.PerLayer) {
			t.Errorf("traced run reports %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(d.PerLayer))
		}
	})
}
