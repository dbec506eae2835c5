package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/front"
	"repro/internal/trace"
	"repro/internal/workload"
)

// writeTrace writes a generated trace (header α = 2, as tracegen stamps
// it) to a temp file and returns its path.
func writeTrace(t *testing.T, n int, seed int64, weighted bool) string {
	t.Helper()
	cfg := workload.DefaultConfig(n, 4, seed)
	cfg.Load = 1.2
	cfg.Weighted = weighted
	path, _ := saveTrace(t, cfg)
	return path
}

// saveTrace writes the instance cfg generates, with α = 2, to a temp file
// and returns its path and bytes.
func saveTrace(t *testing.T, cfg workload.RandomConfig) (string, []byte) {
	t.Helper()
	ins := workload.Random(cfg)
	ins.Alpha = 2
	var buf bytes.Buffer
	if err := trace.WriteInstance(&buf, ins); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

// schedsim runs the command and returns its exit status, stdout and stderr.
func schedsim(args ...string) (int, string, string) {
	return schedsimIn(strings.NewReader(""), args...)
}

// schedsimIn is schedsim with the given stdin.
func schedsimIn(stdin io.Reader, args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, stdin, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestFrontConfig(t *testing.T) {
	feed, err := front.NewFeed(strings.NewReader(`{"machines":3,"alpha":2.5,"jobs":7}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	o := options{policy: "speedscale", eps: 0.3, ckpt: "ck", ckptEvery: 5, ckptDeltas: 2, ckptKeep: 3, stopAfter: 9}
	got := o.frontConfig(feed)
	want := front.Config{
		Policy: "speedscale", Epsilon: 0.3, Alpha: 2.5, Machines: 3, SizeHint: 7,
		CheckpointPath: "ck", CheckpointEvery: 5, CheckpointDeltas: 2, CheckpointKeep: 3,
		AckTimeout: time.Hour,
	}
	if got != want {
		t.Fatalf("-alpha 0:\n got %+v\nwant %+v", got, want)
	}
	o.alpha, o.progress = 3, time.Second
	got = o.frontConfig(feed)
	if got.Alpha != 3 || got.Obs == nil {
		t.Fatalf("-alpha 3 -progress 1s: α %v, registry %v", got.Alpha, got.Obs)
	}
}

// drainOverHTTP feeds the trace at path to a fresh front.Server as tenant 0
// through its HTTP handler and returns the drained report as schedserve
// prints it.
func drainOverHTTP(t *testing.T, cfg front.Config, path string) string {
	t.Helper()
	srv, err := front.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer body.Close()
	resp, err := http.Post(ts.URL+"/v1/feed?tenant=0", "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	acks, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !bytes.HasSuffix(acks, []byte(`{"done":true}`+"\n")) {
		t.Fatalf("feed did not finish cleanly (%v): ...%s", err, acks[max(0, len(acks)-200):])
	}
	resp, err = http.Post(ts.URL+"/v1/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep front.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out) + "\n"
}

// TestStreamMatchesServer: schedsim -stream prints the bytes a front.Server
// fed the same trace over HTTP drains to.
func TestStreamMatchesServer(t *testing.T) {
	for _, tc := range []struct {
		policy   string
		eps      float64
		weighted bool
	}{
		{"flowtime", 0.2, false},
		{"wsrpt", 0.2, true},
		{"speedscale", 0.3, true},
	} {
		t.Run(tc.policy, func(t *testing.T) {
			path := writeTrace(t, 1500, 5, tc.weighted)
			code, got, stderr := schedsim("-stream", "-policy", tc.policy, "-eps", fmt.Sprint(tc.eps), path)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			want := drainOverHTTP(t, front.Config{Policy: tc.policy, Epsilon: tc.eps, Alpha: 2, Machines: 4}, path)
			if got != want {
				t.Fatalf("schedsim -stream report differs from the server's:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestStopResumeMatchesStraightRun: -stop-after drains to a checkpoint and
// prints nothing; -resume replays the trace and prints the straight run's
// report, and a replay that is not the checkpointed trace fails.
func TestStopResumeMatchesStraightRun(t *testing.T) {
	path := writeTrace(t, 2000, 1, false)
	ck := filepath.Join(t.TempDir(), "ck")
	_, straight, _ := schedsim("-stream", "-policy", "flowtime", path)

	code, out, stderr := schedsim("-stream", "-policy", "flowtime", "-checkpoint", ck, "-checkpoint-every", "300", "-stop-after", "1000", path)
	if code != 0 || out != "" || !strings.Contains(stderr, "stopped after 1000 jobs") {
		t.Fatalf("stop: exit %d, stdout %q, stderr %q", code, out, stderr)
	}
	code, resumed, stderr := schedsim("-stream", "-policy", "flowtime", "-resume", ck, path)
	if code != 0 || resumed != straight {
		t.Fatalf("resume: exit %d (%s), report\n%s\nwant\n%s", code, stderr, resumed, straight)
	}

	for name, trace := range map[string]string{
		"shorter":    writeTrace(t, 800, 1, false),
		"other-seed": writeTrace(t, 2000, 2, false),
	} {
		code, _, stderr := schedsim("-stream", "-policy", "flowtime", "-resume", ck, trace)
		if code != 1 || !strings.Contains(stderr, "resuming against a different trace?") {
			t.Errorf("%s trace: exit %d, stderr %q", name, code, stderr)
		}
	}
}

// TestResumeRefusesBareSessionCheckpoint: testdata/bare.ck is the lineage
// (one member, bare.ck.0.full) an older schedsim -stream left at -stop-after 20 on testdata/bare40.ndjson
// — a bare engine session, not a front-door container.
func TestResumeRefusesBareSessionCheckpoint(t *testing.T) {
	code, _, stderr := schedsim("-stream", "-policy", "flowtime", "-resume", "testdata/bare.ck", "testdata/bare40.ndjson")
	if code != 1 || !strings.Contains(stderr, "bare-session checkpoint from an older schedsim -stream") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

func TestStreamRefusals(t *testing.T) {
	for _, args := range [][]string{
		{"-stream", "-dump", "out.json"},
		{"-stream", "-gantt"},
		{"-stream", "-batch", "1"},
		{"-stream", "-stop-after", "5"},
		{"-stream", "-policy", "greedy"},
	} {
		if code, _, _ := schedsim(args...); code != 2 {
			t.Errorf("schedsim %v: exit %d, want 2", args, code)
		}
	}
}

// TestComparatorParamsRefused: a NaN, infinite or non-positive comparator
// parameter fails the run instead of printing a NaN (or zero) total flow or
// silently switching a rejection rule off.
func TestComparatorParamsRefused(t *testing.T) {
	path := writeTrace(t, 50, 3, false)
	if code, out, errOut := schedsim("-policy", "speedaug", path); code != 0 {
		t.Fatalf("valid speedaug run: exit %d\n%s%s", code, out, errOut)
	}
	if code, out, errOut := schedsim("-policy", "immediate", path); code != 0 {
		t.Fatalf("valid immediate run: exit %d\n%s%s", code, out, errOut)
	}
	for _, args := range [][]string{
		{"-policy", "speedaug", "-epsS", "NaN"}, {"-policy", "speedaug", "-epsS", "Inf"},
		{"-policy", "speedaug", "-epsS", "0"}, {"-policy", "speedaug", "-eps", "NaN"},
		{"-policy", "speedaug", "-eps", "-Inf"},
		{"-policy", "immediate", "-eps", "NaN"}, {"-policy", "immediate", "-eps", "Inf"},
		{"-policy", "immediate", "-eps", "0"},
	} {
		args = append(args, path)
		if code, out, _ := schedsim(args...); code == 0 {
			t.Errorf("schedsim %v: exit 0, want non-zero\n%s", args, out)
		}
	}
}

// TestCompareGolden pins -compare's table below its title line for both
// policy pairs on one small weighted instance (tracegen -n 60 -m 3 -seed 4
// -weighted -load 1.2), read from a file and from stdin. The goldens were
// recorded before the comparison moved into bench.Compare.
func TestCompareGolden(t *testing.T) {
	cfg := workload.DefaultConfig(60, 3, 4)
	cfg.Load, cfg.Weighted = 1.2, true
	path, raw := saveTrace(t, cfg)
	for _, pol := range []string{"flowtime", "wflow"} {
		want, err := os.ReadFile("testdata/compare_" + pol + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []struct{ arg, name string }{{path, path}, {"-", "stdin"}} {
			code, out, stderr := schedsimIn(bytes.NewReader(raw), "-compare", "-policy", pol, "-eps", "0.25", src.arg)
			title, body, _ := strings.Cut(out, "\n")
			if code != 0 || body != string(want) {
				t.Fatalf("%s from %s: exit %d (%s), table\n%s\nwant\n%s", pol, src.name, code, stderr, body, want)
			}
			if !strings.Contains(title, pol+" on "+src.name+" (n=60, m=3, ε=0.25)") {
				t.Fatalf("%s from %s: title %q", pol, src.name, title)
			}
		}
	}
	if code, _, _ := schedsim("-compare", "-policy", "speedscale", path); code != 2 {
		t.Fatalf("-compare -policy speedscale: exit %d, want 2", code)
	}
}

// TestDumpWritesOutcome: -dump writes the audited outcome, every job
// completed or rejected.
func TestDumpWritesOutcome(t *testing.T) {
	path := writeTrace(t, 40, 2, false)
	dump := filepath.Join(t.TempDir(), "out.json")
	if code, _, stderr := schedsim("-policy", "flowtime", "-dump", dump, path); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	f, err := os.Open(dump)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out, err := trace.ReadOutcome(f)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(out.Completed) + len(out.Rejected); n != 40 {
		t.Fatalf("dump records %d finished jobs, want 40", n)
	}
}
