package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// pinnedQuick holds the SHA-256 of the rendered quick-mode table of each
// experiment that runs a baseline comparator (speed-augmented, immediate
// rejection, fixed-speed HDF, greedy SPT). The tables are deterministic, so
// any change to a comparator's outcomes, or to the metrics read off them,
// changes a digest. A deliberate change re-records the digest and says why.
var pinnedQuick = map[string]string{
	"E3":  "fda6ad9cf859f3fd97e45461318524a2c306379ffb280f49e6c565215fb36108",
	"E4":  "a7ac9f400f66071c8c0d0553a5029f969042d5668283bc322a845930e7c8a714",
	"E6":  "c2fbd0f3123abc5b63b67dc3c834861978d91116e6c4c10071137d89f3f03539",
	"E11": "5a81f945a7c9df585917ab70512bdec769bc05dfe0d413c49d09c29d121fc0a2",
	"E15": "d77d2e7025952a59ae68225c8af806466fc0768b054b3929fd44d897ae86964d",
}

func TestComparatorTablesPinned(t *testing.T) {
	for id, want := range pinnedQuick {
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %s missing", id)
			}
			out, err := e.Run(Config{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(out.String()))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Fatalf("%s quick table digest %s, want %s:\n%s", id, got, want, out)
			}
		})
	}
}
