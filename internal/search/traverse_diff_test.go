package search

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dnnd/internal/brute"
	"dnnd/internal/knng"
	"dnnd/internal/metric"
)

// oracleTraverse is the walk traverse replaced: every candidate is
// scored by its own call, then tested and applied before the next one
// is scored. It is kept here only as the referee of the block-scored
// traversal.
func oracleTraverse(sc *Context[float32], g *knng.Graph, score func(knng.ID) float32, l int, opt Options) *knng.NeighborList {
	n := g.NumVertices()
	if l > n {
		l = n
	}
	results := &sc.results
	results.Reset(l)
	front := &sc.front
	front.Reset()
	sc.visited.Begin(n)

	seeds := l
	if seeds < minSeedPoints {
		seeds = minSeedPoints
	}
	if seeds > n {
		seeds = n
	}
	tombs := opt.Tombs
	seeded := 0
	for _, id := range opt.Entries {
		if int(id) >= n || !sc.visited.Visit(id) {
			continue
		}
		seeded++
		d := score(id)
		if !tombs.Dead(id) {
			results.Update(id, d, false)
		}
		front.Push(id, d)
	}
	for attempts := 0; seeded < seeds && attempts < 4*seeds+16; attempts++ {
		id := knng.ID(sc.rng.intn(n))
		if !sc.visited.Visit(id) {
			continue
		}
		seeded++
		d := score(id)
		if !tombs.Dead(id) {
			results.Update(id, d, false)
		}
		front.Push(id, d)
	}

	eps1 := 1 + opt.Epsilon
	hasDeadline := !opt.Deadline.IsZero()
	for !front.Empty() {
		if opt.interrupt != nil && opt.interrupt() {
			sc.st.Truncated = 1
			break
		}
		if hasDeadline && time.Now().After(opt.Deadline) {
			sc.st.Truncated = 1
			break
		}
		p, pd := front.Pop()
		if float64(pd) > horizon(results, eps1) {
			break
		}
		sc.st.Visited++
		for _, e := range g.Neighbors[p] {
			if !sc.visited.Visit(e.ID) {
				continue
			}
			d := score(e.ID)
			if float64(d) < horizon(results, eps1) {
				if !tombs.Dead(e.ID) {
					results.Update(e.ID, d, false)
				}
				front.Push(e.ID, d)
			}
		}
	}
	return results
}

// oracleQuery answers a query one candidate at a time.
func oracleQuery(g *knng.Graph, data [][]float32, dist metric.Func[float32], q []float32, opt Options, seed int64) ([]knng.Neighbor, Stats) {
	sc := NewContext[float32]()
	sc.rng.seed(seed)
	exact := func(id knng.ID) float32 {
		sc.st.DistEvals++
		return dist(q, data[id])
	}
	return oracleTraverse(sc, g, exact, opt.L, opt).SortedInto(nil), sc.st
}

// stopAfter returns an interrupt hook that fires on its (k+1)-th poll, so a
// traversal is cut after exactly k expansions — deterministically,
// unlike a wall-clock deadline.
func stopAfter(k int) func() bool {
	polls := 0
	return func() bool {
		polls++
		return polls > k
	}
}

// TestTraverseMatchesOneAtATimeOracle runs the block-scored traversal
// and the oracle side by side over seeds 1-50: plain queries, with
// tombstones, with caller entry points (including
// out-of-range and repeated ones), under an expired deadline and
// interrupted mid-walk. Results and Stats must be identical.
func TestTraverseMatchesOneAtATimeOracle(t *testing.T) {
	sc := NewContext[float32]() // reused across every query, as a serve worker does
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, dim := 150+rng.Intn(300), 1+rng.Intn(40)
		data := ctxTestData(n, dim, seed)
		dist := metric.Func[float32](metric.L2Float32)
		if seed%2 == 0 {
			dist = metric.SquaredL2Float32
		}
		g := brute.KNNGraph(data, 4+rng.Intn(8), dist, 1)
		if seed%3 == 0 {
			g.Optimize(6, 1.5)
		}
		tombs := knng.NewTombSet(n)
		for i := 0; i < n/8; i++ {
			tombs.Kill(knng.ID(rng.Intn(n)))
		}
		entries := []knng.ID{knng.ID(rng.Intn(n)), knng.ID(n + 5), knng.ID(rng.Intn(n))}
		entries = append(entries, entries[0])
		q := ctxTestData(1, dim, seed+1000)[0]
		base := Options{L: []int{1, 3, 10, 40}[rng.Intn(4)], Epsilon: 0.3 * rng.Float64()}

		cases := []struct {
			name     string
			tombs    *knng.TombSet
			entries  []knng.ID
			deadline bool
			stop     int // expansions before the interrupt hook fires; -1: never
		}{
			{name: "plain", stop: -1},
			{name: "tombstoned", tombs: tombs, stop: -1},
			{name: "entries", entries: entries, tombs: tombs, stop: -1},
			{name: "deadline", deadline: true, stop: -1},
			{name: "interrupted", stop: rng.Intn(6)},
		}
		for _, c := range cases {
			// A fresh Options per walk: each needs its own interrupt count.
			opt := func() Options {
				o := base
				o.Tombs, o.Entries = c.tombs, c.entries
				if c.deadline {
					o.Deadline = time.Now().Add(-time.Second)
				}
				if c.stop >= 0 {
					o.interrupt = stopAfter(c.stop)
				}
				return o
			}
			want, wantSt := oracleQuery(g, data, dist, q, opt(), seed)
			got, gotSt := SearchCtx(sc, g, data, dist, q, opt(), seed)
			if len(got) == 0 {
				got = nil
			}
			if !reflect.DeepEqual(want, got) || wantSt != gotSt {
				t.Fatalf("seed %d %s: block walk diverged from oracle\nblock  = %v %+v\noracle = %v %+v",
					seed, c.name, got, gotSt, want, wantSt)
			}
			if c.deadline && wantSt.Truncated != 1 {
				t.Fatalf("seed %d: expired deadline did not truncate", seed)
			}
		}
	}
}
