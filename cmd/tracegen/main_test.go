package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

// tracegen runs the command and returns its exit status, stdout and stderr.
func tracegen(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestBadFlagsRefused: a value out of range exits 2 naming its flag and
// writes nothing — no trace on stdout, no -o file.
func TestBadFlagsRefused(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-n", "0"}, "-n"},
		{[]string{"-m", "0"}, "-m"},
		{[]string{"-kind", "deadline", "-horizon", "0"}, "-horizon"},
		{[]string{"-kind", "lemma1", "-L", "0"}, "-L"},
		{[]string{"-kind", "lemma1", "-eps", "0"}, "-eps"},
		{[]string{"-load", "0"}, "-load"},
		{[]string{"-load", "-1"}, "-load"},
		{[]string{"-load", "NaN"}, "-load"},
		{[]string{"-load", "Inf"}, "-load"},
		{[]string{"-kind", "deadline", "-slack", "NaN"}, "-slack"},
		{[]string{"-alpha", "NaN"}, "-alpha"},
		{[]string{"-alpha", "-1"}, "-alpha"},
		{[]string{"-kind", "zipf"}, "-kind"},
	} {
		out := filepath.Join(t.TempDir(), "out.ndjson")
		code, stdout, stderr := tracegen(append(tc.args, "-o", out)...)
		if code != 2 || !strings.Contains(stderr, tc.flag+" must be") {
			t.Errorf("tracegen %v: exit %d, stderr %q; want 2 naming %s", tc.args, code, stderr, tc.flag)
		}
		if _, err := os.Stat(out); stdout != "" || !os.IsNotExist(err) {
			t.Errorf("tracegen %v wrote output (stdout %d bytes, -o stat %v)", tc.args, len(stdout), err)
		}
	}
}

// TestEveryKindRoundTrips: for each generator kind, the trace tracegen
// writes reads back through trace.ReadInstance as exactly the generator's
// instance — weights, deadlines and α (every kind's but lemma1's) included.
func TestEveryKindRoundTrips(t *testing.T) {
	for _, kind := range strings.Split(kinds, "|") {
		t.Run(kind, func(t *testing.T) {
			args := []string{"-kind", kind, "-n", "60", "-m", "3", "-seed", "9", "-weighted", "-alpha", "2.5", "-L", "5"}
			code, stdout, stderr := tracegen(args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			got, err := trace.ReadInstance(strings.NewReader(stdout))
			if err != nil {
				t.Fatal(err)
			}
			want := parse(args, &bytes.Buffer{}).generate()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trace decodes to a different instance than the generator's")
			}
			wantAlpha := 2.5
			if kind == "lemma1" {
				wantAlpha = 0
			}
			if got.Alpha != wantAlpha {
				t.Fatalf("header α %v, want %v", got.Alpha, wantAlpha)
			}
			var weighted, deadlines bool
			for _, j := range got.Jobs {
				weighted = weighted || j.Weight != 1
				deadlines = deadlines || !math.IsInf(j.Deadline, 1)
			}
			wantWeighted := kind != "deadline" && kind != "lemma1"
			if weighted != wantWeighted || deadlines != (kind == "deadline") {
				t.Fatalf("weighted %v, deadlines %v: the trace does not exercise the fields the kind generates", weighted, deadlines)
			}
		})
	}
}

// TestOutputFile: -o writes the same bytes as stdout.
func TestOutputFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.ndjson")
	_, stdout, _ := tracegen("-n", "20")
	if code, _, stderr := tracegen("-n", "20", "-o", out); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if b, err := os.ReadFile(out); err != nil || string(b) != stdout {
		t.Fatalf("-o file differs from stdout (err %v)", err)
	}
	if code, _, _ := tracegen("-o", filepath.Join(out, "no-such-dir", "t.ndjson")); code != 1 {
		t.Fatalf("unwritable -o: exit %d, want 1", code)
	}
}
