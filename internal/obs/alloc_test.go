//go:build !race

package obs

import "testing"

// TestRecordingAllocatesNothing pins what lets telemetry sit on every hot
// path: a counter add and a histogram record (fixed power-of-two buckets)
// never touch the allocator.
func TestRecordingAllocatesNothing(t *testing.T) {
	var c Counter
	var h Histogram
	i := 0
	record := func() {
		c.Add(1)
		h.Record(float64(i & 0xffff))
		i++
	}
	if a := testing.AllocsPerRun(1<<14, record); a != 0 {
		t.Fatalf("Counter.Add + Histogram.Record: %v allocs/op, want 0", a)
	}
}
