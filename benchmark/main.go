// Command benchmark is this repository's performance ledger: one program
// that generates seeded inputs, drives four named workloads — three over
// real TCP against a separately exec'd schedserve, one in-process on the
// policy engines — checks every output, and prints each end-to-end metric by
// name with unit, per-repetition values, median and quartiles. With
// -trace 1 it instead makes the traced run that yields the per-layer
// numbers and a span file. README.md documents workloads, metrics, bounds
// and the run protocol; BENCHMARK.json is the manifest the acceptance
// driver reads.
//
//	go run ./benchmark                       # all workloads, 5 repetitions each
//	go run ./benchmark -trace 1              # per-layer numbers + out/trace.<workload>.json
//	go run ./benchmark -sets 2               # twice; medians side by side against the bounds
//	go run ./benchmark -quick                # 1/50 sizes, one repetition, in-process server
//	go run ./benchmark --workload wire_flood --seed 8 --seconds 25 --trace 0   # driver form
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// findRoot walks up from the working directory to the checkout root, the
// directory that holds BENCHMARK.json and go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no checkout root (BENCHMARK.json beside go.mod) above the working directory")
		}
		dir = parent
	}
}

// hostStamp is stamped on every results file: numbers from different hosts
// or core counts are not comparable.
type hostStamp struct {
	Cores            int    `json:"cores"`
	GOMAXPROCS       int    `json:"gomaxprocs_generator"`
	ServerGOMAXPROCS int    `json:"gomaxprocs_server"` // the server inherits the environment, so the same
	GoVersion        string `json:"go_version"`
	CPUModel         string `json:"cpu_model"`
	Commit           string `json:"git_commit"`
}

func stampHost(root string) hostStamp {
	h := hostStamp{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), ServerGOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// resultsFile is out/results.json.
type resultsFile struct {
	Host      hostStamp           `json:"host"`
	Seed      int64               `json:"seed"`
	Quick     bool                `json:"quick"`
	BuildS    float64             `json:"server_build_s"`
	Sets      [][]*workloadResult `json:"sets"`
	Generated string              `json:"generated"`
}

func main() {
	var (
		names   = flag.String("workload", "", "comma-separated workloads to run (default: all four)")
		seed    = flag.Int64("seed", defaultSeed, "input seed; report digests are pinned for the default only")
		seconds = flag.Float64("seconds", 0, "repeat each workload until this many seconds are measured, at least 3 times (0: 5 repetitions)")
		trace   = flag.Int("trace", 0, "1: make the traced run (per-layer metrics, span file) instead of the end-to-end run")
		quick   = flag.Bool("quick", false, "1/50 sizes, one repetition, in-process server (what go test runs)")
		sets    = flag.Int("sets", 1, "1 or 2; 2 runs everything twice and fails unless digests agree and every median agrees within its bound")
		update  = flag.Bool("update-pins", false, "rewrite pins.json from this run's digests (default seed only)")
	)
	flag.Parse()
	if *sets != 1 && *sets != 2 {
		fatal(errors.New("-sets takes 1 or 2"))
	}
	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	p, err := loadPins()
	if err != nil {
		fatal(err)
	}
	defs, err := loadManifest(root)
	if err != nil {
		fatal(err)
	}
	opt := runOptions{seed: *seed, quick: *quick, seconds: time.Duration(*seconds * float64(time.Second)), pins: p, defs: defs}
	if *update {
		if *seed != defaultSeed || *trace != 0 {
			fatal(errors.New("-update-pins needs the default seed and an end-to-end run"))
		}
		opt.pins = nil
	}
	var selected []string
	if *names != "" {
		selected = strings.Split(*names, ",")
	}
	file, ok, err := run(root, opt, selected, *trace != 0, *sets, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if *update {
		if err := updatePins(root, p, file, *quick); err != nil {
			fatal(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// run executes the selected workloads sets times, prints the tables to w,
// writes out/results.json (and the span files of a traced run), and reports
// whether every correctness check passed and, with two sets, whether they
// agree. When exactly one workload ran once, the last line printed is the
// driver's JSON object.
func run(root string, opt runOptions, selected []string, traced bool, sets int, w io.Writer) (*resultsFile, bool, error) {
	outDir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, false, err
	}
	e := &env{outDir: outDir}
	file := &resultsFile{Host: stampHost(root), Seed: opt.seed, Quick: opt.quick, Generated: time.Now().UTC().Format(time.RFC3339)}
	if !opt.quick {
		// Built once, before any timed window; not part of setup_s.
		bin, dur, err := buildServer(root, outDir)
		if err != nil {
			return nil, false, err
		}
		e.bin, file.BuildS = bin, dur.Seconds()
	}
	fmt.Fprintf(w, "host: %d cores, GOMAXPROCS %d (generator and server), %s, %s, commit %s\n",
		file.Host.Cores, file.Host.GOMAXPROCS, file.Host.GoVersion, file.Host.CPUModel, file.Host.Commit)

	ok := true
	var last *workloadResult
	for set := 0; set < sets; set++ {
		var results []*workloadResult
		for _, wl := range allWorkloads(opt.seed, opt.quick) {
			if len(selected) > 0 && !slices.Contains(selected, wl.name) {
				continue
			}
			var res *workloadResult
			var err error
			switch {
			case traced:
				res, err = runTraced(e, wl, opt, file.BuildS)
			case wl.batch:
				res, err = runBatch(wl, opt)
			default:
				res, err = runWire(e, wl, opt)
			}
			if err != nil {
				return nil, false, err
			}
			printResult(w, opt.defs, res, set)
			ok = ok && res.Correct
			results = append(results, res)
			last = res
		}
		if len(results) == 0 {
			return nil, false, fmt.Errorf("no workload named %q", strings.Join(selected, ","))
		}
		file.Sets = append(file.Sets, results)
	}
	if sets > 1 && !traced && !compareSets(w, opt.defs.EndToEnd, file.Sets[0], file.Sets[1]) {
		ok = false
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return nil, false, err
	}
	name := "results.json"
	if traced {
		name = "results.trace.json"
	}
	if err := os.WriteFile(filepath.Join(outDir, name), append(data, '\n'), 0o644); err != nil {
		return nil, false, err
	}
	if sets == 1 && len(file.Sets[0]) == 1 {
		line, err := driverLine(opt.defs, last)
		if err != nil {
			return nil, false, err
		}
		fmt.Fprintf(w, "%s\n", line)
	}
	return file, ok, nil
}

// driverLine is the single JSON object the acceptance driver reads off the
// last line of standard output.
func driverLine(defs *manifest, res *workloadResult) ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]val{}}
	list := defs.EndToEnd
	if res.Traced {
		list = defs.PerLayer
	}
	for _, d := range list { // exactly the manifest's metrics
		m := res.Metrics[d.Name]
		out.Metrics[d.Name] = val{m.Value, m.Unit}
	}
	return json.Marshal(out)
}

func printResult(w io.Writer, defs *manifest, res *workloadResult, set int) {
	kind, list := "end-to-end", slices.Concat(defs.EndToEnd, reportedOnly)
	if res.Traced {
		kind, list = "per-layer (traced run)", defs.PerLayer
	}
	fmt.Fprintf(w, "\n== %s · set %d · %s · %d repetitions · %d ack samples · digest %.12s\n",
		res.Name, set+1, kind, res.Reps, res.AckSamples, res.Digest)
	fmt.Fprintf(w, "%-36s %-8s %14s %14s %14s  %s\n", "metric", "unit", "median", "q1", "q3", "per repetition")
	for _, d := range list {
		m := res.Metrics[d.Name]
		var vals []string
		for _, v := range m.Values {
			vals = append(vals, fmt.Sprintf("%.6g", v))
		}
		fmt.Fprintf(w, "%-36s %-8s %14.6g %14.6g %14.6g  n=%d [%s]\n", d.Name, m.Unit, m.Value, m.Q1, m.Q3, len(m.Values), strings.Join(vals, " "))
	}
	fmt.Fprintf(w, "%-36s %-8s %14.6g  (%d failed of %d attempted)\n", "failed_share", "ratio", res.FailedShare, res.Failed, res.Attempted)
	for _, f := range res.Flags {
		fmt.Fprintf(w, "FLAG: %s\n", f)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", f)
	}
}

// compareSets lays two sets' medians side by side — per metric × workload
// both medians, their relative difference and the bound — and reports
// whether the sets agree: the same digests, and no median further from the
// other set's than its bound, in either direction (two runs of the same code
// have no better and no worse side).
func compareSets(w io.Writer, endToEnd []metricDef, first, second []*workloadResult) bool {
	fmt.Fprintf(w, "\n== sets 1 and 2: medians, relative difference, bound\n")
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "differ by", "bound")
	out, digests := 0, 0
	for k, a := range first {
		b := second[k]
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			diff := 0.0
			if va != vb {
				diff = (vb - va) / math.Min(math.Abs(va), math.Abs(vb)) // ±Inf beside a zero median
			}
			flag := ""
			if math.Abs(diff) > d.Bound {
				flag = "  OUT OF BOUND"
				out++
			}
			fmt.Fprintf(w, "%-14s %-18s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", a.Name, d.Name, va, vb, 100*diff, 100*d.Bound, flag)
		}
		if a.Digest != b.Digest {
			fmt.Fprintf(w, "CHECK FAILED: %s: the sets' digests differ: %s vs %s\n", a.Name, a.Digest, b.Digest)
			digests++
		}
	}
	fmt.Fprintf(w, "sets agree: %v (%d metric × workload pairs out of bound, %d digests differ)\n", out+digests == 0, out, digests)
	return out+digests == 0
}

// updatePins rewrites pins.json with this run's digests for its size.
func updatePins(root string, p pins, file *resultsFile, quick bool) error {
	size := sizeName(quick)
	if p[size] == nil {
		p[size] = map[string]string{}
	}
	for _, res := range file.Sets[0] {
		p[size][res.Name] = res.Digest
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "benchmark", "pins.json"), buf.Bytes(), 0o644)
}
