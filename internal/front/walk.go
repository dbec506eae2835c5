package front

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/engine"
	"repro/internal/sched"
)

// walkDecided visits every job that the finished sessions and the carried
// ledger decided, once each, in increasing gid order — the order the report
// adds its floats in. It reads each session's own job table and outcome
// record in place: one cursor per source, merged by gid. A cursor runs
// until another source's head comes first, so sources holding disjoint gid
// ranges (one tenant each, the common case) cost one comparison a job.
func walkDecided(sessions []*engine.Session, carried []verdictRow, visit func(v *verdictRow) error) error {
	cs := make([]cursor, 0, len(sessions)+1)
	for _, ps := range sessions {
		cs = append(cs, cursor{ps: ps, perm: gidOrder(ps), n: ps.Fed()})
	}
	cs = append(cs, cursor{rows: carried, n: len(carried)})
	live := cs[:0] // the cursors that still have a head, filtered in place
	for _, c := range cs {
		ok, err := c.advance()
		if err != nil {
			return err
		}
		if ok {
			live = append(live, c)
		}
	}
	for len(live) > 0 {
		best := 0
		for k := 1; k < len(live); k++ {
			if live[k].head.gid < live[best].head.gid {
				best = k
			}
		}
		bound := math.MaxInt // the first gid another source holds
		for k := range live {
			if k != best {
				bound = min(bound, live[k].head.gid)
			}
		}
		c := &live[best]
		if c.head.gid == bound {
			return fmt.Errorf("front: job %d decided twice", bound)
		}
		for c.head.gid < bound {
			if err := visit(&c.head); err != nil {
				return err
			}
			ok, err := c.advance()
			if err != nil {
				return err
			}
			if !ok {
				live = slices.Delete(live, best, best+1)
				break
			}
		}
	}
	return nil
}

// cursor walks one source of decided jobs in gid order: a finished
// session's slots (through perm when feed order is not gid order), or the
// carried ledger's rows, which are kept sorted.
type cursor struct {
	ps   *engine.Session
	perm []int32
	rows []verdictRow
	k, n int
	head verdictRow
}

// advance loads the source's next job into head, reporting false once the
// source is exhausted.
func (c *cursor) advance() (bool, error) {
	if c.k == c.n {
		return false, nil
	}
	k := c.k
	c.k++
	if c.ps == nil {
		c.head = c.rows[k]
		return true, nil
	}
	if c.perm != nil {
		k = int(c.perm[k])
	}
	j, st, t := c.ps.Decision(k)
	if st == sched.JobOpen {
		return false, fmt.Errorf("front: job %d was fed but never decided", j.ID)
	}
	c.head = verdictRow{gid: j.ID, release: j.Release, weight: j.Weight, t: t, rejected: st == sched.JobRejected}
	return true, nil
}

// gidOrder returns a session's slots in increasing gid order, or nil when
// feed order already is that order: the session holds one tenant, whose ids
// arrived increasing — every stream the benchmark and loadgen send. A shard
// that interleaves tenants, or a tenant whose ids arrived out of order, pays
// one sort of a 4-byte-a-job permutation.
func gidOrder(ps *engine.Session) []int32 {
	n := ps.Fed()
	gid := func(k int) int {
		j, _, _ := ps.Decision(k)
		return j.ID
	}
	k := 1
	for k < n && gid(k-1) < gid(k) {
		k++
	}
	if k >= n {
		return nil
	}
	perm := make([]int32, n)
	for k := range perm {
		perm[k] = int32(k)
	}
	slices.SortFunc(perm, func(x, y int32) int { return gid(int(x)) - gid(int(y)) })
	return perm
}
