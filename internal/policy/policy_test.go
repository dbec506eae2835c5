package policy

import (
	"bytes"
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
