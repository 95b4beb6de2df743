package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, for one second
// on a tiny corpus: every operation succeeds, every output check
// passes, and every metric is printed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the serving stack six times")
	}
	for _, name := range []string{"read-unique", "read-write", "ingest"} {
		t.Run(name, func(t *testing.T) {
			spec := workloads[name]
			spec.authors, spec.setupReps = 300, 2
			out := t.TempDir()
			if err := os.MkdirAll(filepath.Join(out, "spans"), 0o755); err != nil {
				t.Fatal(err)
			}
			for trace, want := range [][]metricDef{endToEnd, layerDefs} {
				b := &bench{name: name, spec: spec, seed: 1, seconds: 1, dir: t.TempDir(), out: out}
				run := b.untraced
				if trace == 1 {
					run = b.traced
				}
				res, err := run()
				if err != nil {
					t.Fatalf("trace %d: %v", trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("trace %d: correct %v, %d of %d operations failed", trace, res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace %d: %d metrics, want %d", trace, len(res.Metrics), len(want))
				}
				for _, def := range want {
					m, ok := res.Metrics[def.name]
					if !ok || m.Unit != def.unit {
						t.Errorf("trace %d: metric %s = %+v, want unit %s", trace, def.name, m, def.unit)
					}
					if trace == 0 && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", def.name, m.Value)
					}
				}
			}
		})
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	for _, w := range file.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json lists unknown workload %q", w.Name)
		}
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		code []metricDef
	}{{file.EndToEnd, endToEnd}, {file.PerLayer, layerDefs}} {
		if len(c.file) != len(c.code) {
			t.Fatalf("BENCHMARK.json has %d metrics where the command prints %d", len(c.file), len(c.code))
		}
		for i, m := range c.file {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s %s, command %s %s", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
