package front

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/snapshot"
)

// genJobs builds one tenant's deterministic stream: local ids 0..n-1,
// strictly increasing releases, varied weights and processing vectors.
func genJobs(seed uint64, n, machines int) []sched.Job {
	rng := chaos.NewRand(seed)
	jobs := make([]sched.Job, n)
	rel := 0.0
	for i := range jobs {
		rel += rng.Float64() * 0.5
		proc := make([]float64, machines)
		for m := range proc {
			proc[m] = 0.5 + 3*rng.Float64()
		}
		jobs[i] = sched.Job{
			ID:       i,
			Release:  rel,
			Weight:   1 + float64(rng.Intn(3)),
			Proc:     proc,
			Deadline: sched.NoDeadline,
		}
	}
	return jobs
}

func testConfig(machines, shards int) Config {
	return Config{
		Policy:   "flowtime",
		Epsilon:  0.2,
		Machines: machines,
		Shards:   shards,
		Admission: admission.Config{
			Epsilon: 0.3,
		},
		QueueDepth:    64,
		ReadTimeout:   5 * time.Second,
		ThrottleDelay: -1, // no artificial delays in tests
	}
}

// feedInProcess opens one stream per tenant (all before any job flows, so
// the merge barrier is satisfied deterministically), pushes every job, and
// collects ack statuses per tenant.
func feedInProcess(t *testing.T, s *Server, jobsByTenant map[int][]sched.Job) map[int]map[int]string {
	t.Helper()
	var mu sync.Mutex
	got := make(map[int]map[int]string)
	streams := make(map[int]*Stream)
	for tenant := range jobsByTenant {
		st, err := s.OpenStream(tenant)
		if err != nil {
			t.Fatalf("open tenant %d: %v", tenant, err)
		}
		streams[tenant] = st
	}
	var wg sync.WaitGroup
	for tenant, jobs := range jobsByTenant {
		st := streams[tenant]
		wg.Add(2)
		go func() {
			defer wg.Done()
			for _, j := range jobs {
				if err := st.Push(j); err != nil {
					t.Errorf("tenant %d push: %v", tenant, err)
					return
				}
			}
			st.CloseSend()
		}()
		go func() {
			defer wg.Done()
			acks := make(map[int]string)
			for a := range st.Acks() {
				if _, dup := acks[a.ID]; !dup || a.St != chaos.AckDup {
					acks[a.ID] = a.St
				}
			}
			mu.Lock()
			got[tenant] = acks
			mu.Unlock()
		}()
	}
	wg.Wait()
	return got
}

// TestDeterministicMultiplex is the tentpole's core claim: two concurrent
// tenant streams, fed with arbitrary goroutine interleaving, produce the
// same report on every run — and the report balances (every fed job is
// completed or rejected, no drops).
func TestDeterministicMultiplex(t *testing.T) {
	cfg := testConfig(3, 2)
	cfg.AwaitTenants = 2
	jobs := map[int][]sched.Job{
		1: genJobs(101, 300, 3),
		5: genJobs(505, 250, 3),
	}
	var first []byte
	for run := 0; run < 3; run++ {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feedInProcess(t, s, jobs)
		rep, err := s.Drain()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Fed != 550 || rep.PreRejected != 0 {
			t.Fatalf("run %d: fed %d pre-rejected %d, want 550/0", run, rep.Fed, rep.PreRejected)
		}
		if rep.Completed+rep.Rejected != rep.Fed {
			t.Fatalf("run %d: %d+%d != %d fed", run, rep.Completed, rep.Rejected, rep.Fed)
		}
		if len(rep.Tenants) != 2 || rep.Tenants[0].ID != 1 || rep.Tenants[1].ID != 5 {
			t.Fatalf("run %d: tenants %+v", run, rep.Tenants)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = b
			continue
		}
		if !bytes.Equal(b, first) {
			t.Fatalf("run %d report diverged:\n%s\nvs\n%s", run, b, first)
		}
	}
}

// TestDuplicateSuppression pins idempotent replay: feeding the same stream
// twice (second pass all dups) leaves the report identical to feeding once.
func TestDuplicateSuppression(t *testing.T) {
	cfg := testConfig(2, 1)
	jobs := genJobs(7, 120, 2)

	once, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedInProcess(t, once, map[int][]sched.Job{3: jobs})
	repOnce, err := once.Drain()
	if err != nil {
		t.Fatal(err)
	}

	twice, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedInProcess(t, twice, map[int][]sched.Job{3: jobs})
	acks := feedInProcess(t, twice, map[int][]sched.Job{3: jobs}) // full replay
	for id, st := range acks[3] {
		if st != chaos.AckDup {
			t.Fatalf("replayed job %d acked %q, want dup", id, st)
		}
	}
	repTwice, err := twice.Drain()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(repOnce)
	b, _ := json.Marshal(repTwice)
	if !bytes.Equal(a, b) {
		t.Fatalf("replay changed the report:\n%s\nvs\n%s", b, a)
	}
	if twice.Stats().Dup != int64(len(jobs)) {
		t.Fatalf("dup counter %d, want %d", twice.Stats().Dup, len(jobs))
	}
}

// TestCheckpointResume is the SIGKILL story in process: a server
// checkpointing every 64 fed jobs absorbs a prefix, "dies" (abandoned), a
// new server restores from the periodic checkpoint and gets the whole
// stream replayed — the final report must be byte-identical to an
// uninterrupted run's.
func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	machines := 2
	jobs := map[int][]sched.Job{
		0: genJobs(11, 200, machines),
		9: genJobs(99, 180, machines),
	}

	// Uninterrupted reference run.
	cfg := testConfig(machines, 2)
	cfg.AwaitTenants = 2
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedInProcess(t, ref, jobs)
	want, err := ref.Drain()
	if err != nil {
		t.Fatal(err)
	}

	// Checkpointing run: feed only a prefix of each stream, then abandon
	// the server mid-flight (its goroutine parks; a SIGKILL without the
	// courtesy of an exit). The cut must land on a prefix of the MERGED
	// order — a dead server's checkpoint always does, because the merge
	// pops the global minimum — so compute per-tenant prefixes by walking
	// the same (release, tenant) order the sequencer uses.
	ckCfg := cfg
	ckCfg.CheckpointPath = filepath.Join(dir, "front.snap")
	ckCfg.CheckpointEvery = 64
	victim, err := New(ckCfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := jobs[0], jobs[9]
	na, nb := mergedPrefix(a, b, 200)
	prefix := map[int][]sched.Job{
		0: a[:na],
		9: b[:nb],
	}
	feedInProcess(t, victim, prefix)
	if victim.Stats().Checkpoints == 0 {
		t.Fatal("no periodic checkpoint was written")
	}
	// The newest checkpoint on disk is the last 64-boundary merge prefix;
	// with no retention configured, three checkpoints leave two fulls.
	ck, _, err := snapshot.RecoverLineage(ckCfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	members, _ := filepath.Glob(ckCfg.CheckpointPath + ".*")
	slices.Sort(members)
	if want := []string{ckCfg.CheckpointPath + ".1.full", ckCfg.CheckpointPath + ".2.full"}; !slices.Equal(members, want) {
		t.Fatalf("default retention left %v on disk, want %v", members, want)
	}

	// Resume from the checkpoint and replay both streams in full.
	resumed, err := Restore(ckCfg, bytes.NewReader(ck))
	if err != nil {
		t.Fatal(err)
	}
	acks := feedInProcess(t, resumed, jobs)
	dups := 0
	for _, tenantAcks := range acks {
		for _, st := range tenantAcks {
			if st == chaos.AckDup {
				dups++
			}
		}
	}
	if dups == 0 {
		t.Fatal("resume saw no duplicate acks — the checkpoint held nothing")
	}
	if n := resumed.Stats().Restamped; n != 0 {
		t.Fatalf("resume restamped %d jobs; a merge-prefix checkpoint never should", n)
	}
	got, err := resumed.Drain()
	if err != nil {
		t.Fatal(err)
	}
	wantB, _ := json.Marshal(want)
	gotB, _ := json.Marshal(got)
	if !bytes.Equal(gotB, wantB) {
		t.Fatalf("resumed report diverged from the uninterrupted run:\n%s\nvs\n%s", gotB, wantB)
	}
}

// TestRestoreRefusesMismatchedConfig pins the checkpoint identity check.
func TestRestoreRefusesMismatchedConfig(t *testing.T) {
	cfg := testConfig(2, 1)
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "ck.snap")
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedInProcess(t, s, map[int][]sched.Job{0: genJobs(1, 50, 2)})
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	ck, _, err := snapshot.RecoverLineage(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Policy = "srpt" },
		func(c *Config) { c.Machines = 3 },
		func(c *Config) { c.Epsilon = 0.5 },
		func(c *Config) { c.Admission.Epsilon = 0.1 },
	} {
		bad := cfg
		mutate(&bad)
		if _, err := Restore(bad, bytes.NewReader(ck)); err == nil {
			t.Fatalf("restore accepted a mismatched config %+v", bad)
		}
	}
	// Shards is NOT identity: the checkpoint's count wins (a fleet resized
	// mid-run must come back at its live count regardless of what the
	// restarting process was configured with).
	reshard := cfg
	reshard.Shards = 2
	s2, err := Restore(reshard, bytes.NewReader(ck))
	if err != nil {
		t.Fatalf("restore refused a shards-only config difference: %v", err)
	}
	if rep, err := s2.Drain(); err != nil || rep.Shards != 1 {
		t.Fatalf("restored server did not adopt the checkpoint's shard count: %v (rep %+v)", err, rep)
	}
	if _, err := Restore(cfg, bytes.NewReader(ck[:len(ck)-3])); err == nil {
		t.Fatal("restore accepted a truncated checkpoint")
	}
}

// TestOverloadShedsWithinBudget drives an overloaded server (stalled shard
// plus tight watermarks) and checks the graceful-degradation contract:
// jobs are pre-rejected, never beyond any tenant's ε budget, and
// conservation holds — every submitted job is fed or pre-rejected, every
// fed job completed or rejected.
func TestOverloadShedsWithinBudget(t *testing.T) {
	cfg := testConfig(2, 1)
	cfg.Admission = admission.Config{
		ThrottleDepth: 8,
		RejectDepth:   24,
		Epsilon:       0.4,
		Burst:         1,
	}
	cfg.QueueDepth = 16
	cfg.Stall = chaos.Stall{Every: 8, Delay: 2 * time.Millisecond}
	cfg.AwaitTenants = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := map[int][]sched.Job{
		1: genJobs(21, 400, 2),
		2: genJobs(22, 400, 2),
	}
	acks := feedInProcess(t, s, jobs)
	rep, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fed+rep.PreRejected != 800 {
		t.Fatalf("fed %d + pre-rejected %d != 800 submitted", rep.Fed, rep.PreRejected)
	}
	if rep.Completed+rep.Rejected != rep.Fed {
		t.Fatalf("fed %d but %d completed + %d rejected", rep.Fed, rep.Completed, rep.Rejected)
	}
	if rep.PreRejected == 0 {
		t.Fatal("stalled overload shed nothing — the admission path never engaged")
	}
	for _, tr := range rep.Tenants {
		ten := admission.Tenant{ID: tr.ID, Fed: tr.Fed, FedWeight: tr.FedWeight,
			PreRejected: tr.PreRejected, PreRejectedWeight: tr.PreRejectedWeight}
		if err := admission.BudgetInvariant(cfg.Admission, ten, 1e-9); err != nil {
			t.Fatal(err)
		}
	}
	// Ack bookkeeping agrees with the report.
	sent, rejAcks := 0, 0
	for _, tenantAcks := range acks {
		sent += len(tenantAcks)
		for _, st := range tenantAcks {
			if st == chaos.AckRej {
				rejAcks++
			}
		}
	}
	if sent != 800 || rejAcks != rep.PreRejected {
		t.Fatalf("acks: %d sent, %d rej; report pre-rejected %d", sent, rejAcks, rep.PreRejected)
	}
}

// TestTenantBusyAndDrainRefusal pins the stream lifecycle errors.
func TestTenantBusyAndDrainRefusal(t *testing.T) {
	s, err := New(testConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.OpenStream(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenStream(4); err != ErrTenantBusy {
		t.Fatalf("second stream: %v, want ErrTenantBusy", err)
	}
	if _, err := s.OpenStream(-1); err == nil {
		t.Fatal("negative tenant accepted")
	}
	go func() {
		for range st.Acks() {
		}
	}()
	st.CloseSend()
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenStream(5); err != ErrDraining {
		t.Fatalf("post-drain open: %v, want ErrDraining", err)
	}
	// Drain is idempotent.
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPServeWithChaosClients is the end-to-end harness in miniature:
// three tenants hammer the HTTP front door through retrying chaos clients
// that kill their own connections and truncate frames; afterwards the
// drained report must balance with what the clients saw acknowledged.
func TestHTTPServeWithChaosClients(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.Admission.MaxQueuedWeight = 40
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	tenants := []int{2, 7, 11}
	perTenant := 150
	var wg sync.WaitGroup
	results := make([]*chaos.Result, len(tenants))
	errs := make([]error, len(tenants))
	for i, tenant := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &chaos.Client{
				Server:      ts.URL,
				Tenant:      tenant,
				Machines:    2,
				MaxAttempts: 16,
				BackoffBase: time.Millisecond,
				BackoffMax:  10 * time.Millisecond,
				Faults:      chaos.Faults{Kills: 1, Truncations: 1, Window: 40},
				Seed:        uint64(tenant),
			}
			results[i], errs[i] = c.Run(context.Background(), genJobs(uint64(1000+tenant), perTenant, 2))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tenant %d: %v", tenants[i], err)
		}
	}
	rep, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fed+rep.PreRejected != len(tenants)*perTenant {
		t.Fatalf("report fed %d + pre-rejected %d != %d submitted", rep.Fed, rep.PreRejected, len(tenants)*perTenant)
	}
	if rep.Completed+rep.Rejected != rep.Fed {
		t.Fatalf("fed %d, completed %d + rejected %d", rep.Fed, rep.Completed, rep.Rejected)
	}
	for i, res := range results {
		if res.Kills != 1 || res.Truncations != 1 {
			t.Fatalf("tenant %d: faults not injected: %+v", tenants[i], res)
		}
		if res.OK+res.Rejected+res.Dup != perTenant {
			t.Fatalf("tenant %d: acked %d of %d", tenants[i], res.OK+res.Rejected+res.Dup, perTenant)
		}
	}
}

// TestHTTPRefusals pins the pre-stream HTTP errors: bad tenant, bad header,
// machine mismatch, tenant busy, draining, and the strict in-stream
// rejection of a duplicate id.
func TestHTTPRefusals(t *testing.T) {
	cfg := testConfig(2, 1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string) (int, string) {
		resp, err := ts.Client().Post(ts.URL+path, "application/x-ndjson", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}

	if code, _ := post("/v1/feed?tenant=zebra", ""); code != 400 {
		t.Fatalf("bad tenant: %d", code)
	}
	if code, _ := post("/v1/feed?tenant=1", "not json\n"); code != 400 {
		t.Fatalf("bad header: %d", code)
	}
	if code, _ := post("/v1/feed?tenant=1", `{"machines":5}`+"\n"); code != 400 {
		t.Fatalf("machine mismatch: %d", code)
	}
	// Duplicate id inside one connection: refused by the strict reader with
	// a positioned error line. (The pre-dup job's ack is racy by design —
	// the abort may discard it before the sequencer pops — so only the
	// error terminator is pinned; a real client replays unacked jobs.)
	body := `{"machines":2}
{"id":0,"release":0,"proc":[1,1]}
{"id":0,"release":1,"proc":[1,1]}
`
	code, out := post("/v1/feed?tenant=1", body)
	if code != 200 {
		t.Fatalf("dup stream status %d", code)
	}
	if !bytes.Contains([]byte(out), []byte("duplicate job id")) {
		t.Fatalf("dup stream response:\n%s", out)
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if code, _ := post("/v1/feed?tenant=1", `{"machines":2}`+"\n"); code != 503 {
		t.Fatalf("draining feed: %d", code)
	}
}

// TestIDSetRunWatermark pins the decided-id set: ids arriving out of order
// park in extra until the run reaches them, an id far past the run stays
// sparse, and every decided id reports as such.
func TestIDSetRunWatermark(t *testing.T) {
	var d idSet
	order := []int{5, 3, 0, 1, 2, 4}
	for _, id := range order {
		if d.has(id) {
			t.Fatalf("id %d decided before it arrived", id)
		}
		d.add(id)
	}
	if d.run != 6 || len(d.extra) != 0 {
		t.Fatalf("after %v: run %d, extra %v; want run 6, extra empty", order, d.run, d.extra)
	}
	d.add(maxLocalID)
	if d.run != 6 || len(d.extra) != 1 || !d.has(maxLocalID) {
		t.Fatalf("id %d: run %d, extra %v; want it sparse in extra", maxLocalID, d.run, d.extra)
	}
	for _, id := range append(order, maxLocalID) {
		if !d.has(id) {
			t.Fatalf("replayed id %d not reported as decided", id)
		}
	}
	for _, id := range []int{6, 7, maxLocalID - 1} {
		if d.has(id) {
			t.Fatalf("undecided id %d reported as decided", id)
		}
	}
}

// TestKillMidRunStallsOnce: a consumer that stops reading its acks while the
// sequencer holds a popped run of its jobs costs the merge one AckTimeout,
// not one per job of the run. The killed stream ends with ErrStreamKilled
// and the other tenant's acks keep flowing.
func TestKillMidRunStallsOnce(t *testing.T) {
	cfg := testConfig(2, 1)
	cfg.QueueDepth = 256 // acks buffer 512: the third full run overflows
	cfg.AckTimeout = 500 * time.Millisecond
	cfg.AwaitTenants = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dead, err := s.OpenStream(1) // nobody reads its acks
	if err != nil {
		t.Fatal(err)
	}
	live, err := s.OpenStream(2)
	if err != nil {
		t.Fatal(err)
	}
	// Every dead-tenant job sorts before every live-tenant job, so the
	// sequencer pops the dead tenant's full queue as one run at a time.
	deadJobs := genJobs(1, 8*cfg.QueueDepth, 2)
	liveJobs := shiftJobs(genJobs(2, 300, 2), 0, 1e6)
	start := time.Now()
	deadErr := make(chan error, 1)
	go func() { deadErr <- dead.PushBatch(deadJobs) }()
	go func() {
		if err := live.PushBatch(liveJobs); err != nil {
			t.Errorf("live push: %v", err)
		}
		live.CloseSend()
	}()
	ok := 0
	for a := range live.Acks() {
		if a.St == chaos.AckOK {
			ok++
		}
	}
	elapsed := time.Since(start)
	if err := <-deadErr; !errors.Is(err, ErrStreamKilled) {
		t.Fatalf("dead tenant's push ended with %v, want ErrStreamKilled", err)
	}
	if err := dead.Err(); !errors.Is(err, ErrStreamKilled) {
		t.Fatalf("dead stream ended with %v, want ErrStreamKilled", err)
	}
	if ok != len(liveJobs) {
		t.Fatalf("live tenant got %d ok acks, want %d", ok, len(liveJobs))
	}
	if elapsed >= 2*cfg.AckTimeout {
		t.Fatalf("merge took %v with one dead consumer, want < 2 × AckTimeout (%v)", elapsed, cfg.AckTimeout)
	}
	if n := s.Stats().AckOverflows; n != 1 {
		t.Fatalf("%d ack overflows, want 1", n)
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestTelemetryCountsPerJob: the sequencer pops jobs in runs, but the
// decide, merge-pop-wait and ack histograms keep one sample per popped job,
// so their means stay per-job costs.
func TestTelemetryCountsPerJob(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.Obs = obs.NewRegistry()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := map[int][]sched.Job{1: genJobs(3, 400, 2), 2: genJobs(4, 300, 2)}
	feedInProcess(t, s, jobs)
	feedInProcess(t, s, map[int][]sched.Job{1: jobs[1][:100]}) // dups are popped too
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	const popped = 400 + 300 + 100
	for _, name := range []string{"front_decide_ns", "front_merge_pop_wait_ns", "front_ack_ns"} {
		if n := cfg.Obs.Histogram(name).Snapshot().Count; n != popped {
			t.Errorf("%s holds %d samples, want one per popped job (%d)", name, n, popped)
		}
	}
	if cfg.Obs.Counter("front_sequencer_busy_ns_total").Value() <= 0 {
		t.Error("front_sequencer_busy_ns_total did not accumulate")
	}
}
