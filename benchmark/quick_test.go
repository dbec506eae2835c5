package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestManifestWorkloads: BENCHMARK.json names exactly the workloads the
// program runs, in its order, and every gated bound is one the contract allows.
func TestManifestWorkloads(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range allWorkloads(defaultSeed, true) {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	for _, d := range m.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestQuickRun drives all four workloads end to end and traced at 1/50 size
// against the in-process server, with every correctness check live —
// including the digests pinned for the default seed.
func TestQuickRun(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	defs, err := loadManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	opt := runOptions{seed: defaultSeed, quick: true, pins: p, defs: defs}
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		file, ok, err := run(root, opt, nil, traced, 1, &out)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		if !ok {
			t.Errorf("traced=%v: a correctness check failed:\n%s", traced, out.String())
		}
		list := defs.EndToEnd
		if traced {
			list = defs.PerLayer
		}
		for _, res := range file.Sets[0] {
			if p["quick"][res.Name] == "" {
				t.Errorf("%s: no quick-size digest pinned", res.Name)
			}
			for _, d := range list {
				if _, ok := res.Metrics[d.Name]; !ok {
					t.Errorf("%s: metric %s missing", res.Name, d.Name)
				}
			}
			if !traced {
				for _, d := range defs.EndToEnd {
					if v := res.Metrics[d.Name].Value; !(v > 0) {
						t.Errorf("%s: %s = %v, want > 0", res.Name, d.Name, v)
					}
				}
			}
		}
		if traced {
			for _, res := range file.Sets[0] {
				sum := 0.0
				for _, n := range []string{"budget.decode_share", "budget.engine_share", "budget.shard_share", "budget.sequencer_share", "budget.http_share"} {
					sum += res.Metrics[n].Value
				}
				if sum < 0.99 || sum > 1.01 {
					t.Errorf("%s: budget shares sum to %v", res.Name, sum)
				}
				if _, err := os.Stat(filepath.Join(root, "benchmark", "out", "trace."+res.Name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", res.Name, err)
				}
			}
		}
	}
}

// TestMismatchFails pins a wrong digest: the run must come back incorrect,
// with failed_share above zero and the check named.
func TestMismatchFails(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bad := pins{"quick": {"wire_flood": strings.Repeat("0", 64), "engine_batch": strings.Repeat("0", 64)}}
	defs, err := loadManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	opt := runOptions{seed: defaultSeed, quick: true, pins: bad, defs: defs}
	var out bytes.Buffer
	file, ok, err := run(root, opt, []string{"wire_flood", "engine_batch"}, false, 1, &out)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("run passed against a wrong pinned digest")
	}
	for _, res := range file.Sets[0] {
		if res.Correct || res.FailedShare <= 0 || len(res.Failures) == 0 {
			t.Errorf("%s: correct=%v failed_share=%v failures=%v", res.Name, res.Correct, res.FailedShare, res.Failures)
		}
	}
	if !strings.Contains(out.String(), "CHECK FAILED") {
		t.Error("the failed check is not printed")
	}
}
