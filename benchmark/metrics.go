package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef names one metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only: share of the median a change may lose
}

// manifest is the part of BENCHMARK.json the program reads: the file is the
// one list of metrics, for the acceptance driver and for this program alike.
// EndToEnd is what a user of the system sees, measured with tracing and
// server telemetry off; every workload reports every one of them (README.md
// says what each means on each workload). PerLayer is the traced run's
// numbers, one layer (package) per prefix.
type manifest struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(m.EndToEnd) == 0 || len(m.PerLayer) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics", len(m.EndToEnd), len(m.PerLayer))
	}
	return &m, nil
}

// reportedOnly lists end-to-end observations that are measured, printed and
// written to the results like the others but not gated: drain_s repeats to
// within 7 % on wire_flood but only to within 22 % on wire_paced and 37 % on
// wire_durable (a final full checkpoint's fsync, three or four samples a
// run), and the contract caps a bound at 25 % — a bound below the spread
// would only raise false alarms. front.drain_ms and engine.close_ms carry the
// attribution in the traced run.
var reportedOnly = []metricDef{
	{Name: "drain_s", Unit: "s", Better: "lower"},
}
