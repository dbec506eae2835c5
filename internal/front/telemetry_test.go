package front

import (
	"bytes"
	"log"
	"regexp"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
)

// TestProgressLine pins the shared status line both commands print: stop
// logs one last line even when no tick fired, and the counters are the
// server's.
func TestProgressLine(t *testing.T) {
	cfg := testConfig(2, 1)
	cfg.Obs = obs.NewRegistry()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedInProcess(t, s, map[int][]sched.Job{0: genJobs(7, 50, 2)})
	var buf bytes.Buffer
	s.Progress(log.New(&buf, "cmd: ", 0), time.Hour)()
	line := regexp.MustCompile(`^cmd: progress fed=50 shed=0 depth=[0-9]+ events/s=[0-9]+ busy=[0-9.]+ state=accept\n$`)
	if !line.Match(buf.Bytes()) {
		t.Fatalf("progress output %q does not match %v", buf.String(), line)
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}
