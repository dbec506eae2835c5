package snapshot

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// lowerParallelMin sets the concurrent-path cut-off to n bytes for the rest
// of the test, so fuzz-sized sections are verified and planned on workers.
func lowerParallelMin(tb testing.TB, n int) {
	old := parallelMin
	parallelMin = n
	tb.Cleanup(func() { parallelMin = old })
}

// parseTreeSerial is parseDeltaTree as a frame-by-frame walk on one
// goroutine: each frame's section is verified and the frame accepted before
// the next frame is split off. The concurrent parse is held to it.
func parseTreeSerial(data []byte) (*deltaNode, error) {
	root := &deltaNode{payload: data}
	sum, err := root.parseSerial(data)
	if err != nil {
		return nil, err
	}
	root.sum = sum
	return root, nil
}

func (n *deltaNode) parseSerial(data []byte) (uint32, error) {
	sr, err := newReader(data)
	if err != nil {
		return 0, err
	}
	sr.AllowDuplicates()
	sum := headerSum
	var seen map[string]int
	for {
		at := sr.off
		tag, payload, stored, err := sr.frame()
		if err != nil {
			n.children = nil
			return 0, err
		}
		child := deltaNode{tag: tag, off: n.off + at + 8, payload: payload, isLeaf: true}
		if len(payload) >= 10 && bytes.Equal(payload[:8], magic[:]) {
			if s, err := child.parseSerial(payload); err == nil {
				child.sum, child.isLeaf = s, false
			}
		}
		if child.isLeaf {
			child.sum = Checksum(payload)
		}
		err = sr.accept(tag, payload, stored, child.sum)
		sum = appendFrameSum(sum, data[at:at+12+len(payload)], child.sum)
		if err == io.EOF {
			return sum, nil
		}
		if err != nil {
			n.children = nil
			return 0, err
		}
		if seen == nil {
			seen = make(map[string]int, 8)
		}
		child.occ = seen[tag]
		seen[tag]++
		n.children = append(n.children, child)
	}
}

// sameTree reports the first difference between two parsed trees: tag,
// occurrence, offset, length, CRC, leaf flag or child count.
func sameTree(path string, got, want *deltaNode) error {
	if got.tag != want.tag || got.occ != want.occ || got.off != want.off || len(got.payload) != len(want.payload) ||
		got.sum != want.sum || got.isLeaf != want.isLeaf || len(got.children) != len(want.children) {
		return fmt.Errorf("%s: got %s#%d at %d (%d bytes, CRC %08x, leaf %v, %d children), want %s#%d at %d (%d bytes, CRC %08x, leaf %v, %d children)",
			path, got.tag, got.occ, got.off, len(got.payload), got.sum, got.isLeaf, len(got.children),
			want.tag, want.occ, want.off, len(want.payload), want.sum, want.isLeaf, len(want.children))
	}
	for k := range want.children {
		c := &want.children[k]
		if err := sameTree(fmt.Sprintf("%s/%s#%d", path, c.tag, c.occ), &got.children[k], c); err != nil {
			return err
		}
	}
	return nil
}

// frontContainer wraps a fleet-shaped container the way a front checkpoint
// does: a leaf, the fleet nested, another leaf.
func frontContainer(src, fleet []byte) []byte {
	w := AppendWriter(nil)
	leaf(w, "FRNT", src[:len(src)/4])
	leaf(w, "FLTB", fleet)
	leaf(w, "CARR", src[len(src)/4:len(src)/2])
	w.Close()
	return w.Bytes()
}

// FuzzParseTreeConcurrent holds the concurrent tree parse to the serial
// reference over front-shaped containers, clean, with a byte of the whole or
// of the nested fleet flipped, and truncated at either level: the same tree
// (tags, occurrences, offsets, CRCs, leaf flags) or the same first error, at
// a cut-off that sends every section to the workers and at one the fuzzer
// moves. On clean containers the concurrent delta plan must equal the one
// planned with every leaf on the caller.
func FuzzParseTreeConcurrent(f *testing.F) {
	f.Add([]byte("state before the checkpoint, long enough to cut"), []byte("the state after it"), uint8(2), uint8(3), uint32(40))
	f.Add(bytes.Repeat([]byte{7}, 300), bytes.Repeat([]byte{7}, 310), uint8(3), uint8(16), uint32(0x9001))
	f.Add([]byte("one shard"), []byte("two shards now"), uint8(1), uint8(0), uint32(1))
	f.Add(append([]byte("SCHSNAP\x00\x01\x00"), "a leaf that looks nested"...), []byte("flat"), uint8(0), uint8(5), uint32(77))

	f.Fuzz(func(t *testing.T, a, b []byte, shards, cut uint8, mut uint32) {
		fleet := fuzzContainer(a, int(shards%4))
		data := frontContainer(a, fleet)
		flip := func(b []byte, at int) []byte {
			c := append([]byte(nil), b...)
			c[at%len(c)] ^= byte(mut>>24) | 1
			return c
		}
		inputs := []struct {
			what string
			data []byte
		}{
			{"clean", data},
			{"flipped", flip(data, int(mut))},
			{"truncated", data[:int(mut>>8)%len(data)]},
			{"nested fleet flipped", frontContainer(a, flip(fleet, int(mut>>4)))},
			{"nested fleet truncated", frontContainer(a, fleet[:int(mut>>12)%len(fleet)])},
		}
		for _, in := range inputs {
			want, wantErr := parseTreeSerial(in.data)
			for _, cutoff := range []int{1, 1 + int(cut)} {
				lowerParallelMin(t, cutoff)
				got, gotErr := parseDeltaTree(in.data)
				if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
					t.Fatalf("%s, cut-off %d: error %v, serial walk %v", in.what, cutoff, gotErr, wantErr)
				}
				if wantErr == nil {
					if err := sameTree("root", got, want); err != nil {
						t.Fatalf("%s, cut-off %d: %v", in.what, cutoff, err)
					}
				}
			}
		}

		base, _ := parseDeltaTree(frontContainer(b, fuzzContainer(b, int(shards/4%4))))
		next, _ := parseDeltaTree(data)
		chunk := 1 + int(cut%64)
		lowerParallelMin(t, 1+int(cut))
		got := planDelta(next, base, chunk)
		lowerParallelMin(t, len(data)+1)
		if want := planDelta(next, base, chunk); !reflect.DeepEqual(got, want) {
			t.Fatalf("the concurrent plan of %d leaves differs from the one planned on the caller", len(want))
		}
	})
}

// TestLineageWriteLeavesNoGoroutines pins that a delta write on the
// concurrent path — parse, plan, self-check beside the write — has every
// goroutine it started gone when it returns.
func TestLineageWriteLeavesNoGoroutines(t *testing.T) {
	lowerParallelMin(t, 1)
	l := openL(t, filepath.Join(t.TempDir(), "ckpt"), LineageOptions{DeltaEvery: 4})
	state := bytes.Repeat([]byte("live state "), 2000)
	if _, err := l.Write(frontContainer(state, fuzzContainer(state, 3)), false); err != nil {
		t.Fatal(err)
	}
	state = append(state, "and a few more jobs"...)
	before := runtime.NumGoroutine()
	e, err := l.Write(frontContainer(state, fuzzContainer(state, 3)), false)
	if err != nil || e.Kind != "delta" {
		t.Fatalf("write: %+v, %v", e, err)
	}
	// A helper hands its work back before its goroutine ends: give the
	// scheduler a moment to retire it.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the write, %d before it", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
