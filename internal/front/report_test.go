package front

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/snapshot"
)

// drainScenario is one served run for the drain tests: each tenant's
// phase-1 and phase-2 streams, an optional resize between the phases, and an
// optional kill and restore.
type drainScenario struct {
	shards   int
	resizeTo int // 0: no resize
	// restore picks the kill point: 0 none, 1 the periodic checkpoint at
	// the end of phase 1 (restored sessions hold phase 1), 2 the checkpoint
	// after the resize (the carried ledger holds phase 1).
	restore int
	phases  [2]map[int][]sched.Job
}

// shuffleIDs renumbers a stream's local ids by a seeded permutation; the
// releases stay in order, so the ids arrive out of order.
func shuffleIDs(jobs []sched.Job, seed uint64) {
	rng := chaos.NewRand(seed)
	ids := make([]int, len(jobs))
	for k := range ids {
		ids[k] = jobs[k].ID
	}
	for k := len(ids) - 1; k > 0; k-- {
		r := rng.Intn(k + 1)
		ids[k], ids[r] = ids[r], ids[k]
	}
	for k := range jobs {
		jobs[k].ID = ids[k]
	}
}

// phaseJobs counts the jobs of one phase.
func phaseJobs(phase map[int][]sched.Job) int {
	n := 0
	for _, jobs := range phase {
		n += len(jobs)
	}
	return n
}

// run serves the scenario and returns the drained server with its report
// as indented JSON, the bytes both commands print.
func (sc drainScenario) run(t *testing.T) (*Server, []byte) {
	t.Helper()
	cfg := testConfig(2, sc.shards)
	if sc.restore > 0 {
		cfg.CheckpointPath = filepath.Join(t.TempDir(), "front.snap")
		if sc.restore == 1 {
			cfg.CheckpointEvery = phaseJobs(sc.phases[0])
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedInProcess(t, s, sc.phases[0])
	resize := func(s *Server) {
		if sc.resizeTo > 0 {
			retired, carried, makespan := s.sessions, slices.Clone(s.carried), s.carriedMakespan
			if err := s.Resize(sc.resizeTo); err != nil {
				t.Fatal(err)
			}
			if s.sessions[0] != retired[0] { // a resize to the current count retires nothing
				checkCarry(t, s, retired, carried, makespan)
			}
		}
	}
	if sc.restore == 2 {
		resize(s)
	}
	if sc.restore > 0 {
		victim := s
		defer victim.Drain() // after the restored server drained: both write one lineage
		// The checkpoint lands after the ack of the job that triggers it.
		for deadline := time.Now().Add(10 * time.Second); victim.Stats().Checkpoints == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("no checkpoint was written")
			}
		}
		payload, _, err := snapshot.RecoverLineage(cfg.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		if s, err = Restore(cfg, bytes.NewReader(payload)); err != nil {
			t.Fatal(err)
		}
		for tenant, acks := range feedInProcess(t, s, sc.phases[0]) {
			for id, st := range acks {
				if st != chaos.AckDup {
					t.Fatalf("replayed tenant %d job %d acked %q, want dup", tenant, id, st)
				}
			}
		}
	}
	if sc.restore != 2 {
		resize(s)
	}
	feedInProcess(t, s, sc.phases[1])
	rep, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteIndented(&buf); err != nil {
		t.Fatal(err)
	}
	return s, buf.Bytes()
}

// pinnedScenario is TestReportBytesPinned's stream: tenants 1, 2 and 3 on
// two shards, where 2 and 3 share shard 0; tenant 3's ids arrive out of
// order; a resize to three shards, where 1 and 2 share shard 1, between the
// phases.
func pinnedScenario(restore int) drainScenario {
	sc := drainScenario{shards: 2, resizeTo: 3, restore: restore}
	for p := range sc.phases {
		sc.phases[p] = map[int][]sched.Job{}
		for tenant, n := range map[int]int{1: 90, 2: 70, 3: 80} {
			jobs := shiftJobs(genJobs(uint64(10*tenant+p), n, 2), p*10000, float64(p)*100)
			if tenant == 3 {
				shuffleIDs(jobs, uint64(p+5))
			}
			sc.phases[p][tenant] = jobs
		}
	}
	return sc
}

// TestReportBytesPinned pins the drained report byte for byte: its SHA-256
// is the digest the map-and-sort drain produced, on a stream where one shard
// interleaves two tenants, one tenant's ids arrive out of order, the fleet
// resizes mid-stream, and the server is killed and restored from a
// checkpoint. Every way the report is built must add the same floats in the
// same order.
func TestReportBytesPinned(t *testing.T) {
	const want = "62f285cad3457802bfa24b0dd8810c05e31cc4b01fd355a390869c9fbcaf43b7"
	_, straight := pinnedScenario(0).run(t)
	for restore := 1; restore <= 2; restore++ {
		if _, got := pinnedScenario(restore).run(t); !bytes.Equal(got, straight) {
			t.Fatalf("restore point %d diverged from the uninterrupted run:\n%s\nvs\n%s", restore, got, straight)
		}
	}
	sum := sha256.Sum256(straight)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("report sha256 %s, want %s:\n%s", got, want, straight)
	}
}

// referenceRows is the drain as it was before the walk, for a set of
// finished sessions: each session's Outcome maps and a map of every fed
// job's facts give one row per decided job, unsorted, and the intervals give
// the makespan. Close after Finish still materializes the maps.
func referenceRows(sessions []*engine.Session, makespan float64) ([]verdictRow, float64, error) {
	type jobFact struct{ release, weight float64 }
	var rows []verdictRow
	for _, ps := range sessions {
		facts := make(map[int]jobFact, ps.Fed())
		ps.EachFed(func(j *sched.Job) { facts[j.ID] = jobFact{j.Release, j.Weight} })
		out, err := ps.Close()
		if err != nil {
			return nil, 0, err
		}
		for _, v := range []struct {
			at       map[int]float64
			rejected bool
		}{{out.Completed, false}, {out.Rejected, true}} {
			for gid, t := range v.at {
				f, ok := facts[gid]
				if !ok {
					return nil, 0, fmt.Errorf("outcome holds job %d the front door never fed", gid)
				}
				rows = append(rows, verdictRow{gid: gid, release: f.release, weight: f.weight, t: t, rejected: v.rejected})
			}
		}
		for _, iv := range out.Intervals {
			makespan = max(makespan, iv.End)
		}
	}
	return rows, makespan, nil
}

// checkCarry holds a resize's carried ledger to the reference: the retired
// sessions' rows, built from their maps, plus the ledger from before the
// resize, sorted by gid, and the later of the two makespans.
func checkCarry(t *testing.T, s *Server, retired []*engine.Session, carried []verdictRow, makespan float64) {
	t.Helper()
	rows, makespan, err := referenceRows(retired, makespan)
	if err != nil {
		t.Fatal(err)
	}
	rows = append(rows, carried...)
	slices.SortFunc(rows, func(a, b verdictRow) int { return a.gid - b.gid })
	if !slices.Equal(s.carried, rows) {
		t.Fatalf("carried ledger after the resize differs from the reference:\n%v\nvs\n%v", s.carried, rows)
	}
	if s.carriedMakespan != makespan {
		t.Fatalf("carried makespan %v, want %v", s.carriedMakespan, makespan)
	}
}

// referenceReport is the drain as it was before the walk: every live
// session's rows from referenceRows, the carried ledger, and one sort of all
// rows before the fold. It is the oracle FuzzDrainReport holds the walk to.
// Call it on a drained server.
func referenceReport(s *Server) (*Report, error) {
	rows, makespan, err := referenceRows(s.sessions, s.carriedMakespan)
	if err != nil {
		return nil, err
	}
	rows = append(rows, s.carried...)
	slices.SortFunc(rows, func(a, b verdictRow) int { return a.gid - b.gid })

	rep := &Report{
		Policy:           s.cfg.Policy,
		Machines:         s.cfg.Machines,
		Shards:           s.cfg.Shards,
		ShardHistory:     slices.Clone(s.shardHist),
		Epsilon:          s.cfg.Epsilon,
		AdmissionEpsilon: s.cfg.Admission.Epsilon,
		AdmissionBurst:   s.cfg.Admission.Burst,
		Makespan:         makespan,
	}
	tens := make(map[int]*TenantReport)
	var order []int
	for _, t := range s.adm.Tenants() {
		tens[t.ID] = &TenantReport{
			ID:                t.ID,
			Fed:               t.Fed,
			FedWeight:         t.FedWeight,
			PreRejected:       t.PreRejected,
			PreRejectedWeight: t.PreRejectedWeight,
			RejectedWeight:    t.PreRejectedWeight,
		}
		order = append(order, t.ID)
		rep.Fed += t.Fed
		rep.PreRejected += t.PreRejected
		rep.RejectedWeight += t.PreRejectedWeight
	}
	for _, v := range rows {
		tr := tens[v.gid>>32]
		if tr == nil {
			return nil, fmt.Errorf("job %d belongs to tenant %d with no admission ledger", v.gid, v.gid>>32)
		}
		flow := v.t - v.release
		rep.TotalFlow += flow
		rep.WeightedFlow += v.weight * flow
		tr.WeightedFlow += v.weight * flow
		if flow > rep.MaxFlow {
			rep.MaxFlow = flow
		}
		if v.rejected {
			rep.Rejected++
			rep.RejectedWeight += v.weight
			tr.Rejected++
			tr.RejectedWeight += v.weight
		} else {
			rep.Completed++
			tr.Completed++
		}
	}
	slices.Sort(order)
	for _, id := range order {
		rep.Tenants = append(rep.Tenants, *tens[id])
	}
	return rep, nil
}

// FuzzDrainReport holds the drain to the map-and-sort reference: the fuzzer
// draws the tenants (how many, which ids, whose local ids arrive out of
// order, how many jobs), the shard count, the resize between the phases and
// the restore point, and the drained report must equal the reference's byte
// for byte.
func FuzzDrainReport(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(0b100), uint8(1), uint8(2), uint8(1), uint16(40))
	f.Add(uint64(2), uint8(2), uint8(0b11), uint8(0), uint8(0), uint8(0), uint16(25))
	f.Add(uint64(3), uint8(4), uint8(0b1010), uint8(2), uint8(1), uint8(2), uint16(30))
	f.Add(uint64(4), uint8(1), uint8(1), uint8(0), uint8(3), uint8(2), uint16(60))
	f.Fuzz(func(t *testing.T, seed uint64, tenants, shuffled, shards, resizeTo, restore uint8, jobs uint16) {
		rng := chaos.NewRand(seed)
		sc := drainScenario{
			shards:   1 + int(shards%3),
			resizeTo: int(resizeTo % 4),
			restore:  int(restore % 3),
		}
		if sc.restore == 2 && (sc.resizeTo == 0 || sc.resizeTo == sc.shards) {
			sc.restore = 1 // a resize to the current count writes no checkpoint
		}
		ids := make([]int, 1+tenants%4)
		for k := range ids {
			ids[k] = 3*k + rng.Intn(3) // distinct, spread over the shards
		}
		for p := range sc.phases {
			sc.phases[p] = map[int][]sched.Job{}
			for k, tenant := range ids {
				n := 1 + (int(jobs)+rng.Intn(16))%64
				phase := shiftJobs(genJobs(rng.Uint64(), n, 2), p*10000, float64(p)*100)
				if shuffled&(1<<k) != 0 {
					shuffleIDs(phase, rng.Uint64())
				}
				sc.phases[p][tenant] = phase
			}
		}
		s, got := sc.run(t)
		ref, err := referenceReport(s)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := ref.WriteIndented(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("drained report differs from the map-and-sort reference:\n%s\nvs\n%s", got, want.Bytes())
		}
	})
}
