package triangles

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"agmdp/internal/parallel"
)

// TestMain honours AGMDP_TEST_PARALLELISM, which CI's multi-worker race pass
// sets to pin the process-default worker count to a value different from
// both 1 and GOMAXPROCS, so the Ladder's sharded scans exercise multi-worker
// interleavings regardless of the runner's core count.
func TestMain(m *testing.M) {
	if v := os.Getenv("AGMDP_TEST_PARALLELISM"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad AGMDP_TEST_PARALLELISM %q: %v\n", v, err)
			os.Exit(2)
		}
		parallel.SetParallelism(n)
	}
	os.Exit(m.Run())
}
