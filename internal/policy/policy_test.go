package policy

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sched"
)

// TestRegistry walks every registered name through the registry's own
// surface: it constructs, runs a batch whose outcome passes the audit mode
// the entry carries, restores its own mid-stream snapshot to the same
// outcome, and carries the audit mode schedsim applied per policy before the
// registry existed.
func TestRegistry(t *testing.T) {
	modes := map[string]sched.ValidateMode{
		"flowtime":   {RequireUnitSpeed: true},
		"wflow":      {RequireUnitSpeed: true},
		"speedscale": {},
		"srpt":       {RequireUnitSpeed: true, AllowPreemption: true},
		"wsrpt":      {RequireUnitSpeed: true, AllowMigration: true},
	}
	if got := Names(); len(got) != len(modes) {
		t.Fatalf("registered %v, want exactly the policies %v", got, modes)
	}
	if Usage() != strings.Join(Names(), "|") {
		t.Fatalf("Usage %q does not list Names %v", Usage(), Names())
	}
	if _, ok := Lookup("greedy"); ok {
		t.Fatal("Lookup found a policy that is not engine-hosted")
	}

	ins := random(400, 3, 5, 1.3, true, 2)
	p := Params{Epsilon: 0.25, Alpha: ins.Alpha}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			e, ok := Lookup(name)
			if !ok || e.Name != name {
				t.Fatalf("Lookup(%q) = %+v, %v", name, e, ok)
			}
			if want, ok := modes[name]; !ok || e.Mode != want {
				t.Fatalf("mode %+v, want %+v", e.Mode, want)
			}
			golden, err := e.Run(ins, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := sched.ValidateOutcome(ins, golden, e.Mode); err != nil {
				t.Fatalf("batch outcome fails its own audit mode: %v", err)
			}

			cut := len(ins.Jobs) / 2
			donor, err := e.New(ins.Machines, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := donor.FeedBatch(ins.Jobs[:cut]); err != nil {
				t.Fatal(err)
			}
			var snap bytes.Buffer
			if err := donor.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			if _, err := donor.Close(); err != nil {
				t.Fatal(err)
			}
			heir, err := e.Restore(&snap, p)
			if err != nil {
				t.Fatal(err)
			}
			if heir.Fed() != cut {
				t.Fatalf("restored session absorbed %d jobs, want %d", heir.Fed(), cut)
			}
			if err := heir.FeedBatch(ins.Jobs[cut:]); err != nil {
				t.Fatal(err)
			}
			out, err := heir.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(golden, out) {
				t.Fatal("restored session diverges from the batch run")
			}
		})
	}
}

// TestRunRejectsInvalidInstances pins that a batch Run validates through its
// feed alone: each malformed instance fails every registry policy's Run with
// an engine error that names the offending job (or, for a machine count
// below one, the count).
func TestRunRejectsInvalidInstances(t *testing.T) {
	const k = 40 // the job each case spoils
	base := random(200, 3, 5, 1.2, true, 2)
	if base.Jobs[k-1].Release < 1 {
		t.Fatalf("job %d released at %v; the out-of-order case needs a release ≥ 1 before it", k-1, base.Jobs[k-1].Release)
	}
	id := base.Jobs[k].ID
	for _, tc := range []struct {
		name  string
		spoil func(ins *sched.Instance)
		want  string
	}{
		{"duplicate id", func(ins *sched.Instance) { ins.Jobs[k].ID = ins.Jobs[3].ID },
			fmt.Sprintf("engine: duplicate job id %d", base.Jobs[3].ID)},
		{"release out of order", func(ins *sched.Instance) { ins.Jobs[k].Release = ins.Jobs[k-1].Release - 1 },
			fmt.Sprintf("engine: job %d released at", id)},
		{"proc length", func(ins *sched.Instance) { ins.Jobs[k].Proc = ins.Jobs[k].Proc[:2] },
			fmt.Sprintf("engine: job %d has 2 processing times, want 3", id)},
		{"non-positive weight", func(ins *sched.Instance) { ins.Jobs[k].Weight = 0 },
			fmt.Sprintf("engine: job %d has non-positive weight", id)},
		{"zero machines", func(ins *sched.Instance) { ins.Machines = 0 },
			"engine: session needs at least one machine, got 0"},
	} {
		ins := base.Clone()
		tc.spoil(ins)
		for _, e := range table {
			_, err := e.Run(ins, Params{Epsilon: 0.2, Alpha: ins.Alpha})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, %s: Run returned %v, want an error containing %q", tc.name, e.Name, err, tc.want)
			}
		}
	}
}
