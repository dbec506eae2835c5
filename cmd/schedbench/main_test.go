package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
)

// schedbench runs the command and returns its exit status, stdout and
// stderr.
func schedbench(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestBadUsageExits2: an unknown experiment, an unknown flag or a stray
// argument exits 2 with a message and runs nothing — stdout stays empty.
func TestBadUsageExits2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "E99"}, `unknown experiment "E99"`},
		{[]string{"-exp", "E1", "-quick", "stray"}, `unexpected argument "stray"`},
		{[]string{"stray"}, `unexpected argument "stray"`},
		{[]string{"-list", "stray"}, `unexpected argument "stray"`},
		{[]string{"-bogus"}, "-bogus"},
	} {
		code, stdout, stderr := schedbench(tc.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("schedbench %v: exit %d, stdout %q, stderr %q; want 2, nothing on stdout, stderr naming %s",
				tc.args, code, stdout, stderr, tc.want)
		}
	}
}

// TestList: -list prints every experiment of the suite, in order, as an id
// line and a claim line.
func TestList(t *testing.T) {
	code, stdout, stderr := schedbench("-list")
	if code != 0 || stderr != "" {
		t.Fatalf("schedbench -list: exit %d, stderr %q", code, stderr)
	}
	var want strings.Builder
	for _, e := range bench.All() {
		fmt.Fprintf(&want, "%-4s %-6s %s\n       claim: %s\n", e.ID, e.Kind, e.Title, e.Claim)
	}
	if stdout != want.String() {
		t.Fatalf("schedbench -list printed\n%s\nwant\n%s", stdout, want.String())
	}
	if n := strings.Count(stdout, "\n"); n != 2*len(bench.All()) || !strings.HasPrefix(stdout, "E1 ") {
		t.Fatalf("schedbench -list printed %d lines, want 2 per experiment starting at E1", n)
	}
}

// TestQuickExperiment: -exp E15 -quick prints the experiment's table, the
// bytes internal/bench pins, followed by a newline; -csv prints its CSV
// form under a title line.
func TestQuickExperiment(t *testing.T) {
	e, ok := bench.ByID("E15")
	if !ok {
		t.Fatal("no E15 in the suite")
	}
	out, err := e.Run(bench.Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := schedbench("-exp", "E15", "-quick")
	if code != 0 || stderr != "" || stdout != fmt.Sprintln(out) {
		t.Fatalf("schedbench -exp E15 -quick: exit %d, stderr %q, stdout\n%s\nwant\n%s", code, stderr, stdout, fmt.Sprintln(out))
	}
	c, ok := out.(interface{ CSV() string })
	if !ok {
		t.Fatal("E15's result has no CSV form")
	}
	code, stdout, _ = schedbench("-exp", "E15", "-quick", "-csv")
	if want := fmt.Sprintf("# E15 %s\n%s\n", e.Title, c.CSV()); code != 0 || stdout != want {
		t.Fatalf("schedbench -exp E15 -quick -csv: exit %d, stdout\n%s\nwant\n%s", code, stdout, want)
	}
}
