package parallel

// MinShardEdges is the shared edge-count threshold below which the library's
// sharded code paths (graph analytics, the sensitivity scan, the Chung–Lu
// generator's proposal streams) fall back to their sequential
// implementations: under it, fan-out and merge overhead exceeds the work
// itself. One constant, one retuning point.
const MinShardEdges = 4096

// Workers returns the worker count for a pass over size items: the process
// default (SetParallelism), or 1 when size is below the pass's threshold,
// where fan-out and merge would cost more than the work itself.
func Workers(size, threshold int) int {
	if size < threshold {
		return 1
	}
	return Parallelism()
}

// Range is a half-open shard [Lo, Hi) of a node (or item) index space.
type Range struct {
	Lo, Hi int
}

// Len returns the number of items in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Split partitions [0, n) into at most `shards` contiguous, non-empty ranges
// of near-equal length (the first n%shards ranges carry one extra item). It
// returns fewer ranges when n < shards and nil when n ≤ 0.
func Split(n, shards int) []Range {
	if n <= 0 {
		return nil
	}
	if shards > n {
		shards = n
	}
	if shards < 1 {
		shards = 1
	}
	out := make([]Range, 0, shards)
	base, extra := n/shards, n%shards
	lo := 0
	for s := 0; s < shards; s++ {
		hi := lo + base
		if s < extra {
			hi++
		}
		out = append(out, Range{Lo: lo, Hi: hi})
		lo = hi
	}
	return out
}

// SplitWeighted partitions [0, n) into at most `shards` contiguous, non-empty
// ranges of near-equal total weight, where cum is an inclusive prefix-sum
// array of per-item weights: cum[0] = 0 and cum[i] = weight(0) + … +
// weight(i−1), so n = len(cum)−1. A CSR offsets array is exactly such a
// prefix sum over node degrees, which is how the graph analytics split skewed
// graphs without a hub-heavy shard dominating the wall clock.
//
// Boundary k of shard s is the smallest index with cum[k] ≥ s/shards of the
// total weight, found by binary search, so no shard exceeds the ideal weight
// by more than the weight of its first item. Zero-weight tails attach to the
// final shard. It returns nil when n ≤ 0 and a single range when the total
// weight is zero.
func SplitWeighted(cum []int64, shards int) []Range {
	n := len(cum) - 1
	if n <= 0 {
		return nil
	}
	if shards > n {
		shards = n
	}
	if shards < 1 {
		shards = 1
	}
	total := cum[n] - cum[0]
	if total <= 0 || shards == 1 {
		return []Range{{Lo: 0, Hi: n}}
	}
	out := make([]Range, 0, shards)
	lo := 0
	for s := 1; s <= shards && lo < n; s++ {
		hi := n
		if s < shards {
			// Smallest hi with cum[hi]−cum[0] ≥ s·total/shards, but always at
			// least lo+1 so every emitted shard is non-empty.
			target := cum[0] + (total*int64(s))/int64(shards)
			hi = searchCum(cum, target)
			if hi <= lo {
				hi = lo + 1
			}
			if hi > n {
				hi = n
			}
		}
		out = append(out, Range{Lo: lo, Hi: hi})
		lo = hi
	}
	return out
}

// searchCum returns the smallest index i with cum[i] ≥ target.
func searchCum(cum []int64, target int64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cum[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
