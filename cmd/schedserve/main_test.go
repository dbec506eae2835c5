package main

import (
	"flag"
	"io"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/chaos"
	"repro/internal/front"
)

func parse(t *testing.T, args ...string) options {
	t.Helper()
	fs := flag.NewFlagSet("schedserve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o, err := parseFlags(fs, args)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return o
}

func TestParseFlagsDefaults(t *testing.T) {
	o := parse(t)
	want := front.Config{
		Policy: "flowtime", Epsilon: 0.2, Machines: 8, Shards: 1,
		QueueDepth: 256, ReadTimeout: 30 * time.Second, ThrottleDelay: time.Millisecond,
	}
	if o.cfg != want {
		t.Fatalf("defaults:\n got %+v\nwant %+v", o.cfg, want)
	}
	if o.listen != ":8080" || o.resume != "" || o.debugAddr != "" || o.progress != 0 {
		t.Fatalf("process defaults: %+v", o)
	}
}

func TestParseFlagsConfig(t *testing.T) {
	o := parse(t,
		"-listen", "127.0.0.1:9", "-policy", "speedscale", "-eps", "0.3", "-alpha", "2.5",
		"-machines", "4", "-shards", "3", "-size-hint", "1000",
		"-throttle-depth", "8", "-reject-depth", "24", "-resume-depth", "4",
		"-adm-eps", "0.4", "-adm-burst", "1", "-max-queued-weight", "50",
		"-queue-depth", "32", "-await-tenants", "2", "-read-timeout", "5s", "-throttle-delay", "-1ms",
		"-checkpoint", "f.ck", "-checkpoint-every", "250", "-checkpoint-deltas", "8", "-checkpoint-keep", "3",
		"-resume", "g.ck", "-stall-every", "16", "-stall-delay", "2ms", "-crash-at-resize", "mid")
	want := front.Config{
		Policy: "speedscale", Epsilon: 0.3, Alpha: 2.5, Machines: 4, Shards: 3, SizeHint: 1000,
		Admission: admission.Config{
			ThrottleDepth: 8, RejectDepth: 24, ResumeDepth: 4,
			Epsilon: 0.4, Burst: 1, MaxQueuedWeight: 50,
		},
		QueueDepth: 32, AwaitTenants: 2, ReadTimeout: 5 * time.Second, ThrottleDelay: -time.Millisecond,
		CheckpointPath: "f.ck", CheckpointEvery: 250, CheckpointDeltas: 8, CheckpointKeep: 3,
		Stall:         chaos.Stall{Every: 16, Delay: 2 * time.Millisecond},
		CrashAtResize: "mid",
	}
	if o.cfg != want {
		t.Fatalf("mapping:\n got %+v\nwant %+v", o.cfg, want)
	}
	if o.listen != "127.0.0.1:9" || o.resume != "g.ck" {
		t.Fatalf("listen %q, resume %q", o.listen, o.resume)
	}
}

// TestParseFlagsTelemetry pins that either consumer of the registry turns it
// on: the debug listener serves it, the progress line reads it.
func TestParseFlagsTelemetry(t *testing.T) {
	for _, tc := range []struct {
		args []string
		on   bool
	}{
		{nil, false},
		{[]string{"-progress", "1s"}, true},
		{[]string{"-debug-addr", "127.0.0.1:0"}, true},
		{[]string{"-progress", "1s", "-debug-addr", "127.0.0.1:0"}, true},
	} {
		if o := parse(t, tc.args...); (o.cfg.Obs != nil) != tc.on {
			t.Errorf("%v: registry %v, want on=%v", tc.args, o.cfg.Obs, tc.on)
		}
	}
}
