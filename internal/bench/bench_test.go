package bench

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E11", "E12", "E13", "E15", "E17"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("All()[%d] = %s, want %s (ordering)", i, all[i].ID, id)
		}
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("ByID(%s) missing", id)
		}
		if e.Title == "" || e.Claim == "" || (e.Kind != "table" && e.Kind != "figure") {
			t.Fatalf("%s: incomplete metadata: %+v", id, e)
		}
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("ByID invented an experiment")
	}
}

// TestAllExperimentsRunQuick executes every experiment in quick mode and
// checks the artifact renders with content and without violation markers
// where the claim is an inequality audit; a violation names the claim.
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run(Config{Quick: true})
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			s := out.String()
			if len(s) < 40 || !strings.Contains(s, e.ID) {
				t.Fatalf("%s: suspicious artifact:\n%s", e.ID, s)
			}
			if strings.Contains(s, "VIOLATED") {
				t.Fatalf("%s violates its claim (%s):\n%s", e.ID, e.Claim, s)
			}
		})
	}
}
