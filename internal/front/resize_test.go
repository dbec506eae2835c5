package front

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/chaos"
	"repro/internal/sched"
	"repro/internal/snapshot"
)

// truncateFile cuts path to frac of its current size: a torn write, the
// crash landing after a member's first bytes but before its tail.
func truncateFile(t *testing.T, path string, frac float64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, int64(float64(fi.Size())*frac)); err != nil {
		t.Fatal(err)
	}
}

// shiftJobs clones a generated stream into a later phase: distinct ids and
// releases lifted past the earlier phase's watermark, so a post-resize
// suffix dedupes and merges cleanly.
func shiftJobs(jobs []sched.Job, idBase int, relBase float64) []sched.Job {
	out := make([]sched.Job, len(jobs))
	for k, j := range jobs {
		j.ID += idBase
		j.Release += relBase
		out[k] = j
	}
	return out
}

// drainJSON drains the server and returns the report marshaled to JSON —
// the byte-equality currency of every resize test.
func drainJSON(t *testing.T, s *Server) []byte {
	t.Helper()
	rep, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestResizeNoOp pins the idempotence contract: resizing to the current
// count changes nothing — the report is byte-identical to a run that never
// called Resize, and the shard history stays a single entry.
func TestResizeNoOp(t *testing.T) {
	cfg := testConfig(2, 2)
	phase1 := genJobs(11, 150, 2)
	phase2 := shiftJobs(genJobs(23, 120, 2), 10000, 100)

	run := func(noop bool) []byte {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feedInProcess(t, s, map[int][]sched.Job{1: phase1})
		if noop {
			if err := s.Resize(2); err != nil {
				t.Fatalf("no-op resize: %v", err)
			}
		}
		feedInProcess(t, s, map[int][]sched.Job{1: phase2})
		return drainJSON(t, s)
	}
	plain, nooped := run(false), run(true)
	if !bytes.Equal(plain, nooped) {
		t.Fatalf("no-op resize changed the report:\n%s\nvs\n%s", nooped, plain)
	}
	var rep Report
	json.Unmarshal(nooped, &rep)
	if len(rep.ShardHistory) != 1 || rep.ShardHistory[0] != 2 {
		t.Fatalf("no-op resize touched the shard history: %v", rep.ShardHistory)
	}
}

// TestResizeDeterministic drives grow, shrink and a grow-shrink chain across
// every front-door policy: each shape, run twice, must produce byte-identical
// reports, with the shard history recording the chain and conservation
// holding across the boundary.
func TestResizeDeterministic(t *testing.T) {
	for _, policy := range []string{"flowtime", "wflow", "speedscale", "srpt", "wsrpt"} {
		for _, chain := range [][]int{{3}, {1}, {3, 2}} {
			t.Run(fmt.Sprintf("%s_%v", policy, chain), func(t *testing.T) {
				cfg := testConfig(2, 2)
				cfg.Policy = policy
				if policy == "speedscale" {
					cfg.Alpha = 2
				}
				phases := make([]map[int][]sched.Job, len(chain)+1)
				for p := range phases {
					phases[p] = map[int][]sched.Job{
						1: shiftJobs(genJobs(uint64(100+p), 80, 2), p*10000, float64(p)*200),
						4: shiftJobs(genJobs(uint64(400+p), 60, 2), p*10000, float64(p)*200),
					}
				}
				run := func() []byte {
					s, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					feedInProcess(t, s, phases[0])
					for i, to := range chain {
						if err := s.Resize(to); err != nil {
							t.Fatalf("resize %d → %d: %v", i, to, err)
						}
						feedInProcess(t, s, phases[i+1])
					}
					return drainJSON(t, s)
				}
				a, b := run(), run()
				if !bytes.Equal(a, b) {
					t.Fatalf("resized run is not deterministic:\n%s\nvs\n%s", a, b)
				}
				var rep Report
				json.Unmarshal(a, &rep)
				wantHist := append([]int{2}, chain...)
				if !slices.Equal(rep.ShardHistory, wantHist) {
					t.Fatalf("shard history %v, want %v", rep.ShardHistory, wantHist)
				}
				if rep.Shards != chain[len(chain)-1] {
					t.Fatalf("final shards %d, want %d", rep.Shards, chain[len(chain)-1])
				}
				if rep.Completed+rep.Rejected != rep.Fed {
					t.Fatalf("conservation broke across the resize: %d+%d != %d",
						rep.Completed, rep.Rejected, rep.Fed)
				}
			})
		}
	}
}

// TestResizeKillRestoreEquivalence is the crash-safety tentpole in process:
// a server checkpointing to a delta lineage resizes mid-run; a second
// universe recovers from the post-resize checkpoint (as if SIGKILLed right
// after), replays both phases, and must land on the byte-identical report.
func TestResizeKillRestoreEquivalence(t *testing.T) {
	dir := t.TempDir()
	phase1 := map[int][]sched.Job{2: genJobs(31, 200, 2), 6: genJobs(67, 150, 2)}
	phase2 := map[int][]sched.Job{
		2: shiftJobs(genJobs(131, 150, 2), 100000, 500),
		6: shiftJobs(genJobs(167, 100, 2), 100000, 500),
	}
	lineCfg := func(name string) Config {
		cfg := testConfig(2, 2)
		cfg.CheckpointPath = filepath.Join(dir, name)
		cfg.CheckpointEvery = 40
		cfg.CheckpointDeltas = 4
		cfg.CheckpointKeep = 3
		return cfg
	}

	// Universe A: uninterrupted two-phase run across a 2→3 resize.
	a, err := New(lineCfg("a"))
	if err != nil {
		t.Fatal(err)
	}
	feedInProcess(t, a, phase1)
	if err := a.Resize(3); err != nil {
		t.Fatal(err)
	}
	feedInProcess(t, a, phase2)
	repA := drainJSON(t, a)

	// Universe B: same prefix, killed right after the resize — modeled by
	// abandoning the server once its post-resize checkpoint is durable and
	// recovering a fresh one from the lineage.
	cfgB := lineCfg("b")
	b1, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	feedInProcess(t, b1, phase1)
	if err := b1.Resize(3); err != nil {
		t.Fatal(err)
	}
	payload, info, err := snapshot.RecoverLineage(cfgB.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.FellBack {
		t.Fatalf("clean lineage claimed a fallback: %+v", info)
	}
	b2, err := Restore(cfgB, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if got := b2.Stats().Fed; got != int64(350) {
		t.Fatalf("restored server claims %d fed, want 350 (including carried verdicts)", got)
	}
	// Replaying the decided prefix must come back as pure dups — including
	// jobs retired with their pre-resize sessions, which only the carried
	// ledger remembers.
	acks := feedInProcess(t, b2, phase1)
	for tenant, m := range acks {
		for id, st := range m {
			if st != chaos.AckDup {
				t.Fatalf("replayed tenant %d job %d acked %q, want dup", tenant, id, st)
			}
		}
	}
	feedInProcess(t, b2, phase2)
	repB := drainJSON(t, b2)
	if !bytes.Equal(repA, repB) {
		t.Fatalf("post-resize recovery diverged from the uninterrupted run:\n%s\nvs\n%s", repB, repA)
	}
	b1.Drain() // release universe B's first server (report unused)
}

// TestRestoreDupsEveryDecidedGid: the decided-id sets are rebuilt, never
// serialized, from three sources — the live fleet's fed jobs, the PREJ
// ledger and the CARR ledger. An overloaded run sheds jobs, resizes (its
// phase-1 verdicts move to the carried ledger) and drains; a server restored
// from the final checkpoint must ack every job of both phases as a dup and
// drain to the same report.
func TestRestoreDupsEveryDecidedGid(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.Admission = admission.Config{ThrottleDepth: 8, RejectDepth: 24, Epsilon: 0.4, Burst: 1}
	cfg.QueueDepth = 16
	cfg.Stall = chaos.Stall{Every: 8, Delay: 2 * time.Millisecond}
	cfg.AwaitTenants = 2
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "ck")
	phase1 := map[int][]sched.Job{1: genJobs(51, 300, 2), 2: genJobs(52, 300, 2)}
	phase2 := map[int][]sched.Job{
		1: shiftJobs(genJobs(151, 200, 2), 100000, 1000),
		2: shiftJobs(genJobs(152, 200, 2), 100000, 1000),
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedInProcess(t, s, phase1)
	if err := s.Resize(3); err != nil {
		t.Fatal(err)
	}
	feedInProcess(t, s, phase2)
	want := drainJSON(t, s)
	var rep Report
	json.Unmarshal(want, &rep)
	if rep.PreRejected == 0 || len(s.carried) == 0 {
		t.Fatalf("run shed %d and carried %d verdicts; the test needs both", rep.PreRejected, len(s.carried))
	}

	payload, _, err := snapshot.RecoverLineage(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(cfg, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []map[int][]sched.Job{phase1, phase2} {
		for tenant, m := range feedInProcess(t, r, phase) {
			for id, st := range m {
				if st != chaos.AckDup {
					t.Fatalf("replayed tenant %d job %d acked %q, want dup", tenant, id, st)
				}
			}
		}
	}
	if got := drainJSON(t, r); !bytes.Equal(got, want) {
		t.Fatalf("replay into the restored server changed the report:\n%s\nvs\n%s", got, want)
	}
}

// TestResizeTornCheckpointFallsBack kills the newest (post-resize) lineage
// member with a torn write: recovery must fall back to the pre-resize
// checkpoint, come up at the old shard count, accept a re-issued resize,
// and still converge to the uninterrupted run's exact report.
func TestResizeTornCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	phase1 := map[int][]sched.Job{3: genJobs(41, 180, 2)}
	phase2 := map[int][]sched.Job{3: shiftJobs(genJobs(141, 140, 2), 100000, 400)}
	mkCfg := func(name string) Config {
		cfg := testConfig(2, 2)
		cfg.CheckpointPath = filepath.Join(dir, name)
		cfg.CheckpointDeltas = 8
		return cfg
	}

	// Reference universe: clean two-phase run across the resize.
	ref, err := New(mkCfg("ref"))
	if err != nil {
		t.Fatal(err)
	}
	feedInProcess(t, ref, phase1)
	if err := ref.Resize(3); err != nil {
		t.Fatal(err)
	}
	feedInProcess(t, ref, phase2)
	repRef := drainJSON(t, ref)

	// Crashed universe: resize lands both bracketing checkpoints, then the
	// post-resize full is torn on disk (the crash window where the file was
	// written but its tail never hit the platter).
	cfg := mkCfg("crash")
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedInProcess(t, c1, phase1)
	if err := c1.Resize(3); err != nil {
		t.Fatal(err)
	}
	lin, err := snapshot.OpenLineage(cfg.CheckpointPath, snapshot.LineageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	entries := lin.Entries()
	newest := entries[len(entries)-1]
	truncateFile(t, filepath.Join(dir, newest.File), 0.5)

	payload, info, err := snapshot.RecoverLineage(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if !info.FellBack || info.Dropped != 1 {
		t.Fatalf("torn newest member not dropped: %+v", info)
	}
	c2, err := Restore(cfg, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	// The pre-resize checkpoint came back: old shard count, so the
	// orchestrator re-issues its resize (idempotent had the post-resize
	// checkpoint survived instead).
	if err := c2.Resize(3); err != nil {
		t.Fatalf("re-issued resize after fallback: %v", err)
	}
	feedInProcess(t, c2, phase1) // pure dups
	feedInProcess(t, c2, phase2)
	repCrash := drainJSON(t, c2)
	if !bytes.Equal(repRef, repCrash) {
		t.Fatalf("torn-checkpoint recovery diverged:\n%s\nvs\n%s", repCrash, repRef)
	}
	c1.Drain()
}

// TestAwaitBarrierReArms pins the merge cold-start barrier across waves:
// after the first wave of streams closes, the barrier re-arms, so a lone
// second-wave stream's jobs must NOT be sequenced until the full quorum of
// tenants has connected. Without the re-arm, multi-phase runs (the resize
// smoke's phase-1 → resize → phase-2 shape) merge in connection-timing
// order and restamp late connectors' releases nondeterministically.
func TestAwaitBarrierReArms(t *testing.T) {
	cfg := testConfig(2, 1)
	cfg.AwaitTenants = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wave 1: the full quorum feeds and closes.
	feedInProcess(t, s, map[int][]sched.Job{
		0: genJobs(5, 30, 2),
		1: genJobs(6, 30, 2),
	})
	fedAfterWave1 := s.Stats().Fed

	// Wave 2, first connector alone: its jobs must wait at the barrier.
	stA, err := s.OpenStream(0)
	if err != nil {
		t.Fatal(err)
	}
	wave2 := shiftJobs(genJobs(7, 5, 2), 10000, 1000)
	for _, j := range wave2 {
		if err := stA.Push(j); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if got := s.Stats().Fed; got != fedAfterWave1 {
		t.Fatalf("sequencer popped a lone second-wave stream: fed %d, want still %d", got, fedAfterWave1)
	}

	// Quorum arrives: both streams now flow.
	stB, err := s.OpenStream(1)
	if err != nil {
		t.Fatal(err)
	}
	wave2b := shiftJobs(genJobs(8, 5, 2), 10000, 1000)
	for _, j := range wave2b {
		if err := stB.Push(j); err != nil {
			t.Fatal(err)
		}
	}
	stA.CloseSend()
	stB.CloseSend()
	for range stA.Acks() {
	}
	for range stB.Acks() {
	}
	if got, want := s.Stats().Fed, fedAfterWave1+10; got != want {
		t.Fatalf("after quorum: fed %d, want %d", got, want)
	}
	if re := s.Stats().Restamped; re != 0 {
		t.Fatalf("barriered waves restamped %d releases, want 0", re)
	}
	s.Drain()
}

// TestResizeDuringDrainRefused pins the lifecycle edges: a resize on a
// draining server fails with ErrDraining, and the HTTP endpoint maps the
// error codes.
func TestResizeDuringDrainRefused(t *testing.T) {
	s, err := New(testConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	feedInProcess(t, s, map[int][]sched.Job{0: genJobs(5, 40, 2)})

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/resize?shards=2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Shards  int   `json:"shards"`
		History []int `json:"history"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || body.Shards != 2 || !slices.Equal(body.History, []int{1, 2}) {
		t.Fatalf("HTTP resize: %d %+v", resp.StatusCode, body)
	}
	if resp, err := http.Post(srv.URL+"/v1/resize?shards=0", "", nil); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("shards=0 → %v %v, want 400", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := s.Resize(3); err != ErrDraining {
		t.Fatalf("resize on a drained server: %v, want ErrDraining", err)
	}
	if resp, err := http.Post(srv.URL+"/v1/resize?shards=3", "", nil); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("resize while drained over HTTP → %v %v, want 503", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
}
