package speedscale

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/snapshot"
)

// reframe copies a session snapshot section by section into a new container,
// handing the policy section's per-machine pending lists (compact job
// indices) and the machines' running job indices (−1 when idle, read from
// the engine's MACH section) to edit, and encoding the lists edit returns in
// their place. Every other byte is carried over, so the result differs from
// the genuine snapshot only by the edit, and every frame's CRC verifies.
func reframe(t *testing.T, snap []byte, edit func(pending [][]int, running []int) [][]int) []byte {
	t.Helper()
	sr, err := snapshot.NewReader(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	sw := snapshot.AppendWriter(nil)
	var running []int
	for {
		tag, d, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		var fill func(e *snapshot.Encoder)
		switch tag {
		case "MACH":
			type machState struct {
				running, seq      int64
				start, vol, speed float64
			}
			ms := make([]machState, d.U32())
			for i := range ms {
				ms[i] = machState{d.I64(), d.I64(), d.F64(), d.F64(), d.F64()}
				running = append(running, int(ms[i].running))
			}
			fill = func(e *snapshot.Encoder) {
				e.U32(uint32(len(ms)))
				for _, m := range ms {
					e.I64(m.running)
					e.I64(m.seq)
					e.F64(m.start)
					e.F64(m.vol)
					e.F64(m.speed)
				}
			}
		case "POLI":
			// Tag, the (ε, α, γ, dual) echo and the rejection tallies.
			polTag := d.Str()
			eps, alpha, gamma, track := d.F64(), d.F64(), d.F64(), d.Bool()
			rejections, rejW := d.Int(), d.F64()
			acc := make([][2]float64, d.U32()) // victim counter, remnant time
			pending := make([][]int, len(acc))
			for i := range acc {
				acc[i] = [2]float64{d.F64(), d.F64()}
				for k := d.U64(); k > 0; k-- {
					pending[i] = append(pending[i], int(d.U32()))
				}
			}
			rest := d.Rest()
			pending = edit(pending, running)
			fill = func(e *snapshot.Encoder) {
				e.Str(polTag)
				e.F64(eps)
				e.F64(alpha)
				e.F64(gamma)
				e.Bool(track)
				e.Int(rejections)
				e.F64(rejW)
				e.U32(uint32(len(pending)))
				for i, ids := range pending {
					e.F64(acc[i][0])
					e.F64(acc[i][1])
					e.U64(uint64(len(ids)))
					for _, id := range ids {
						e.U32(uint32(id))
					}
				}
				e.Raw(rest)
			}
		default:
			payload := d.Rest()
			fill = func(e *snapshot.Encoder) { e.Raw(payload) }
		}
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		sw.Section(tag, fill)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return sw.Bytes()
}

// TestRestoreRefusesInconsistentPending: a snapshot whose pending lists
// name a job twice, a running job or a decided one must be refused at
// Restore with a positioned error, not accepted and found out only at Close
// after the whole suffix has run (as "401 jobs accounted, want 400"). The
// density-order check is strict, so it refuses a repeated entry.
func TestRestoreRefusesInconsistentPending(t *testing.T) {
	ins := weightedInstance(400, 2, 5, 2)
	opt := Options{Epsilon: 0.3, Alpha: 2}
	s, err := NewSession(2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FeedBatch(ins.Jobs[:200]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s.Close()
	snap := buf.Bytes()

	// The unedited copy restores and runs to the end.
	r, err := Restore(bytes.NewReader(reframe(t, snap, func(p [][]int, _ []int) [][]int { return p })), opt)
	if err != nil {
		t.Fatalf("unedited re-framed snapshot refused: %v", err)
	}
	if err := r.FeedBatch(ins.Jobs[200:]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, want string
		edit       func(p [][]int, running []int) [][]int
	}{
		{"head twice", "repeats or leaves density order", func(p [][]int, _ []int) [][]int {
			p[0] = append([]int{p[0][0]}, p[0]...)
			return p
		}},
		{"pending on both machines", "dispatched to machine 0", func(p [][]int, _ []int) [][]int {
			p[1] = append([]int{p[0][0]}, p[1]...)
			return p
		}},
		{"running", "which is running", func(p [][]int, running []int) [][]int {
			p[0] = append([]int{running[0]}, p[0]...)
			return p
		}},
		{"decided", "already decided", func(p [][]int, _ []int) [][]int {
			p[0] = append([]int{0}, p[0]...)
			return p
		}},
		{"assigned elsewhere", "dispatched to machine 0", func(p [][]int, _ []int) [][]int {
			p[1] = append([]int{p[0][0]}, p[1]...)
			p[0] = p[0][1:]
			return p
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := reframe(t, snap, func(p [][]int, running []int) [][]int {
				if len(p[0]) == 0 || running[0] < 0 {
					t.Fatalf("machine 0 must be busy with a pending list at the cut: %d pending, running %d", len(p[0]), running[0])
				}
				return tc.edit(p, running)
			})
			_, err := Restore(bytes.NewReader(data), opt)
			if err == nil {
				t.Fatal("restore accepted the edited pending lists")
			}
			if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), `"POLI"`) {
				t.Fatalf("error %q, want a positioned POLI error mentioning %q", err, tc.want)
			}
		})
	}
}
