package oracle

import (
	"fmt"
	"testing"

	"repro/internal/kernel"
)

// required names the requirements p meets beyond the covering set's
// pairs. Every workload meets the block engine on a probe-free first and
// later fork, where runPoint's fast-path assertions are armed, and every
// campaign runs each compiled engine at each of its worker counts. The
// self-mod ladder on a later fork of a golden booted from a warm store,
// with compiled blocks, is shared translations × self-modification × warm
// store.
func required(w *workload, p point) (r []string) {
	if p[axEngine] >= compiled && p[axBoot] != imageBoot && p[axObservers] == 0 {
		r = append(r, fmt.Sprint(w.name, " armed boot ", p[axBoot]))
	}
	if w.campaign != nil && p[axEngine] >= compiled {
		r = append(r, fmt.Sprint(w.name, " engine ", p[axEngine], " workers ", p.workers()))
	}
	if w.kind == "selfmod" && p == (point{axEngine: compiled + 1, axBoot: laterFork, axStore: warmStore}) {
		r = append(r, "self-mod on a warm store's later fork")
	}
	return r
}

// coveringSet returns the points TestMatrix runs. The covering set is
// every workload's reference; every value of every axis on every workload
// it applies to; within each workload family, every pair of values of two
// axes; and what required names. The named slices' points count as taken
// (their tests run them), and the rest is added greedily and
// deterministically from the tables, taking the point that covers the most
// requirements per unit of cost. It also returns the number of points the
// named slices run.
func coveringSet() (set [][]point, sliced int, err error) {
	type cand struct {
		w    int
		p    point
		reqs []int
	}
	ids := map[string]int{}
	id := func(s string) int {
		if n, ok := ids[s]; ok {
			return n
		}
		ids[s] = len(ids)
		return len(ids) - 1
	}
	points := 1
	for _, ax := range axes {
		points *= len(ax.values)
	}
	var cands []cand
	index := map[*workload]map[point]int{}
	for wi := range workloads {
		w := &workloads[wi]
		index[w] = map[point]int{}
		for n := 0; n < points; n++ { // n's digits, one per axis, are a point
			var p point
			for a, m := 0, n; a < numAxes; a, m = a+1, m/len(axes[a].values) {
				p[a] = m % len(axes[a].values)
			}
			if !w.valid(p) {
				continue
			}
			c := cand{w: wi, p: p}
			for x := 0; x < numAxes; x++ {
				if w.values[x] == nil {
					continue
				}
				c.reqs = append(c.reqs, id(fmt.Sprintf("%s %d=%d", w.name, x, p[x])))
				for y := x + 1; y < numAxes; y++ {
					if w.values[y] != nil {
						c.reqs = append(c.reqs, id(fmt.Sprintf("%s %d=%d %d=%d", w.kind, x, p[x], y, p[y])))
					}
				}
			}
			for _, r := range required(w, p) {
				c.reqs = append(c.reqs, id(r))
			}
			index[w][p] = len(cands)
			cands = append(cands, c)
		}
	}
	set = make([][]point, len(workloads))
	covered := make([]bool, len(ids))
	taken := make([]bool, len(cands))
	take := func(i int) {
		taken[i] = true
		for _, r := range cands[i].reqs {
			covered[r] = true
		}
	}
	for wi := range workloads {
		take(index[&workloads[wi]][workloads[wi].ref(0)])
	}
	for _, sels := range named {
		for _, sel := range sels {
			parts, err := expand(sel)
			if err != nil {
				return nil, 0, err
			}
			for _, pt := range parts {
				for _, p := range pt.pts {
					if i := index[pt.w][p]; !taken[i] {
						take(i)
						sliced++
					}
				}
			}
		}
	}
	for {
		best, bestN, bestCost := -1, 0, 1
		for i, c := range cands {
			n := 0
			for _, r := range c.reqs {
				if !covered[r] {
					n++
				}
			}
			cost := 1
			if w := &workloads[c.w]; w.slow && (c.p[axEngine] < compiled || c.p[axObservers] != 0) {
				cost = 40
			} else if w.slow {
				cost = 4
			}
			if n*bestCost > bestN*cost {
				best, bestN, bestCost = i, n, cost
			}
		}
		if best < 0 {
			return set, sliced, nil
		}
		take(best)
		set[cands[best].w] = append(set[cands[best].w], cands[best].p)
	}
}

// TestMatrix runs what the covering set needs beyond the named slices, one
// subtest per workload.
func TestMatrix(t *testing.T) {
	defer kernel.SetBuildCache(kernel.SetBuildCache(noStoreCache))
	set, sliced, err := coveringSet()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for wi := range workloads {
		w := &workloads[wi]
		if len(set[wi]) == 0 {
			continue
		}
		n += len(set[wi])
		t.Run(w.name, func(t *testing.T) {
			for _, p := range set[wi] {
				check(t, w, p)
			}
		})
	}
	t.Logf("%d points over %d workloads, beyond the %d the named slices run and the references", n, len(workloads), sliced)
}

// FuzzMatrix samples the matrix: the input picks a workload and a value of
// every axis; a point the workload cannot run under is skipped.
func FuzzMatrix(f *testing.F) {
	f.Add(uint8(0), uint8(compiled), uint8(laterFork), uint8(0), uint8(3), uint8(0), uint8(0)) // table1/Vanilla on four later forks
	f.Fuzz(func(t *testing.T, wi, engine, boot, observers, workers, st, resume uint8) {
		defer kernel.SetBuildCache(kernel.SetBuildCache(noStoreCache))
		w := &workloads[int(wi)%len(workloads)]
		var p point
		for a, v := range []uint8{engine, boot, observers, workers, st, resume} {
			p[a] = int(v) % len(axes[a].values)
		}
		if !w.valid(p) {
			t.Skip()
		}
		check(t, w, p)
	})
}
