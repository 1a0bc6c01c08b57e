package main

import (
	"crypto/sha256"
	"math/rand"
	"slices"
	"time"
)

// calibrate times a fixed piece of work that touches none of the repository's
// code: sha256 over 64 MiB and a seeded sort of 1M int64s. Run before and
// after each run, it shows how fast the host was at the time, so compare can
// tell host drift from a change's effect.
func calibrate() time.Duration {
	start := time.Now()
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	h := sha256.New()
	for range 64 {
		h.Write(buf)
	}
	h.Sum(nil)
	rng := rand.New(rand.NewSource(1))
	xs := make([]int64, 1<<20)
	for i := range xs {
		xs[i] = rng.Int63()
	}
	slices.Sort(xs)
	return time.Since(start)
}
