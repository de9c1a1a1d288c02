package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// toySizes runs every workload path in seconds.
var toySizes = sizes{paperScale: 0.05, solveScale: 0.04, paperReps: 1, serviceReps: 2, layerReps: 2, writeRate: 40}

type benchSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchSpec `json:"end_to_end"`
	PerLayer []benchSpec `json:"per_layer"`
}

// TestBenchmarkFileMatchesHarness keeps BENCHMARK.json and the harness in
// step: the same workloads and the same metric names and units, in order.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf := readBenchFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	compareSpecs(t, "end_to_end", bf.EndToEnd, endToEnd)
	compareSpecs(t, "per_layer", bf.PerLayer, perLayer)
}

// TestSmoke runs every workload at toy scale, untraced and traced, and
// checks the result line against the contract: all answers correct, and
// exactly the declared metrics, end-to-end ones never zero.
func TestSmoke(t *testing.T) {
	bf := readBenchFile(t)
	t.Chdir(t.TempDir())
	for _, w := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var out, errs bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "0.3", "--trace", trace}
				if code := run(args, &out, &errs, toySizes); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errs.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool              `json:"correct"`
					Attempted int               `json:"attempted"`
					Failed    int               `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
				}
				want := bf.EndToEnd
				if trace == "1" {
					want = bf.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, s := range want {
					m, ok := res.Metrics[s.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", s.Name)
					case m.Unit != s.Unit:
						t.Errorf("metric %s in %q, want %q", s.Name, m.Unit, s.Unit)
					case trace == "0" && !(m.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", s.Name, m.Value)
					}
				}
			})
		}
	}
}

// TestRejectsBadArguments checks that a malformed invocation prints no
// result and exits non-zero.
func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "solve_read", "--trace", "2"},
		{"--workload", "solve_read", "--seconds", "0"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs, toySizes); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func compareSpecs(t *testing.T, list string, got []benchSpec, want []spec) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: BENCHMARK.json has %d metrics, the harness %d", list, len(got), len(want))
		return
	}
	for i, s := range want {
		if got[i].Name != s.name || got[i].Unit != s.unit {
			t.Errorf("%s[%d]: BENCHMARK.json has %s in %s, the harness %s in %s", list, i, got[i].Name, got[i].Unit, s.name, s.unit)
		}
	}
}
