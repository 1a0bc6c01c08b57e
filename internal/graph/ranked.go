package graph

import (
	"sync/atomic"

	"agmdp/internal/parallel"
)

// The two exact measurements the Ladder mechanism centres on — the triangle
// count and the maximum common-neighbour count — both run on one private
// degree-ranked view of the CSR. Ranking nodes by descending degree is the
// variable order that makes the triangle join worst-case optimal (Ngo,
// "Worst-Case Optimal Join Algorithms: Techniques, Results, and Open
// Problems", 2018), and it also bounds every common-neighbour count by the
// degree of the pair's lighter endpoint, which is what lets the
// max-common-neighbour scan stop early.

// rankedView is the graph relabelled by degree rank: rank 0 is the node of
// highest degree, ties broken by ascending node ID. Row r holds the ranks of
// its node's neighbours in ascending order, so the neighbours heavier than r
// (ranks below r) form a prefix of the row.
type rankedView struct {
	offsets []int64
	nbrs    []int32
}

// ranked builds the degree-ranked view in O(n + m) with a counting sort over
// degrees. Filling the rows by ascending source rank leaves every row sorted
// without a per-row sort.
func (g *Graph) ranked() *rankedView {
	n := len(g.attrs)
	maxDeg := g.MaxDegree()
	// next[maxDeg−d] is the next free rank for a node of degree d.
	next := make([]int32, maxDeg+1)
	for i := 0; i < n; i++ {
		next[maxDeg-int(g.offsets[i+1]-g.offsets[i])]++
	}
	var cum int32
	for b, c := range next {
		next[b] = cum
		cum += c
	}
	rank := make([]int32, n)
	order := make([]int32, n)
	for i := 0; i < n; i++ {
		b := maxDeg - int(g.offsets[i+1]-g.offsets[i])
		rank[i] = next[b]
		order[next[b]] = int32(i)
		next[b]++
	}
	// offsets[r+1] starts as row r's first slot and serves as its write
	// cursor, so once the rows are filled it holds row r's end.
	v := &rankedView{offsets: make([]int64, n+1), nbrs: make([]int32, len(g.neighbors))}
	for r := 1; r < n; r++ {
		i := order[r-1]
		v.offsets[r+1] = v.offsets[r] + g.offsets[i+1] - g.offsets[i]
	}
	for r, i := range order {
		for _, j := range g.row(int(i)) {
			rj := rank[j]
			v.nbrs[v.offsets[rj+1]] = int32(r)
			v.offsets[rj+1]++
		}
	}
	return v
}

func (v *rankedView) row(r int) []int32 { return v.nbrs[v.offsets[r]:v.offsets[r+1]] }

// rankChunk is how many consecutive ranks a worker claims at a time.
const rankChunk = 256

// forChunks runs work over the ranks [0, n) in rank-ordered chunks claimed
// from a shared cursor, on the process-default worker count. Each worker
// calls newWorker once for its private state and stops when the ranks run
// out or work returns false. Graphs below the sharding threshold run on one
// worker, inline.
func (v *rankedView) forChunks(newWorker func() func(lo, hi int) bool) {
	n := len(v.offsets) - 1
	workers := parallel.Workers(len(v.nbrs)/2, minShardEdges)
	if chunks := (n + rankChunk - 1) / rankChunk; workers > chunks {
		workers = chunks
	}
	var cursor atomic.Int64
	parallel.Do(workers, func(int) {
		work := newWorker()
		for {
			lo := int(cursor.Add(rankChunk)) - rankChunk
			if lo >= n || !work(lo, min(lo+rankChunk, n)) {
				return
			}
		}
	})
}

// triangles counts each triangle once, at its lightest corner u: it marks
// u's heavier neighbours, then probes the heavier prefix of each marked
// neighbour's row for marks. Per-worker partial counts are integers, so the
// sum is the same for every worker count and schedule.
func (v *rankedView) triangles() int64 {
	var total atomic.Int64
	v.forChunks(func() func(lo, hi int) bool {
		mark := make([]int32, len(v.offsets)-1)
		return func(lo, hi int) bool {
			var t int64
			for u := lo; u < hi; u++ {
				stamp := int32(u) + 1
				ru := v.row(u)
				for _, w := range ru {
					if int(w) >= u {
						break
					}
					mark[w] = stamp
				}
				for _, w := range ru {
					if int(w) >= u {
						break
					}
					for _, x := range v.row(int(w)) {
						if x >= w {
							break
						}
						if mark[x] == stamp {
							t++
						}
					}
				}
			}
			total.Add(t)
			return true
		}
	})
	return total.Load()
}

// maxCommonNeighbors counts each pair at its lighter endpoint u, against the
// heavier v only: every neighbour w of u contributes the entries of its full
// row that rank below u. Sources run in rank order and a worker stops once
// deg(u) ≤ best, because CN(u, v) ≤ deg(u) and later ranks are no heavier.
// best only ever holds a pair's true count, so a source is skipped only when
// it cannot beat the maximum: the result is exact, and identical for every
// worker count and schedule.
func (v *rankedView) maxCommonNeighbors() int {
	var best atomic.Int32
	v.forChunks(func() func(lo, hi int) bool {
		counts := make([]int32, len(v.offsets)-1)
		return func(lo, hi int) bool {
			for u := lo; u < hi; u++ {
				b := best.Load()
				if v.offsets[u+1]-v.offsets[u] <= int64(b) {
					return false
				}
				top, seen := b, 0
				ru := v.row(u)
				for _, w := range ru {
					rw := v.row(int(w))
					i := 0
					for ; i < len(rw) && int(rw[i]) < u; i++ {
						c := counts[rw[i]] + 1
						counts[rw[i]] = c
						top = max(top, c)
					}
					seen += i
				}
				// Only counts[:u] can be non-zero. Clearing it whole costs at
				// most 8× the entries just counted; otherwise walk them again.
				if 8*seen >= u {
					clear(counts[:u])
				} else {
					for _, w := range ru {
						for _, x := range v.row(int(w)) {
							if int(x) >= u {
								break
							}
							counts[x] = 0
						}
					}
				}
				for top > b && !best.CompareAndSwap(b, top) {
					b = best.Load()
				}
			}
			return true
		}
	})
	return int(best.Load())
}

// Triangles returns n∆, the number of distinct triangles in the graph. Nodes
// are ranked by (degree descending, ID ascending) and each triangle is found
// exactly once, at its lightest corner u: u's heavier neighbours are marked,
// and the heavier prefix of each marked neighbour's row is probed for marks.
// A node's heavier neighbours number O(√m), so the probes cost O(m^{3/2})
// total even on heavy-tailed graphs where hub rows would otherwise dominate,
// and no sorted merge is needed. Workers claim rank-ordered chunks of the
// degree-ranked view and sum integer partial counts, so the result is the
// same for every worker count.
func (g *Graph) Triangles() int64 {
	if g.m == 0 {
		return 0
	}
	return g.ranked().triangles()
}

// TrianglesAndMaxCommonNeighbors returns the triangle count and the maximum,
// over all node pairs u ≠ v, of |Γ(u) ∩ Γ(v)| — the local sensitivity of the
// triangle count under edge adjacency — from one degree-ranked view, built
// once. Both scans are exact for every worker count.
func (g *Graph) TrianglesAndMaxCommonNeighbors() (int64, int) {
	if g.m == 0 {
		return 0, 0
	}
	v := g.ranked()
	return v.triangles(), v.maxCommonNeighbors()
}
