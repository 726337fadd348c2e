package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hyperfile/internal/object"
	"hyperfile/internal/server"
)

// failure describes one query that did not come back complete and correct.
type failure struct {
	Index  int    `json:"index"`
	Body   string `json:"body"`
	Reason string `json:"reason"`
}

// loadResult is what one closed-loop phase observed.
type loadResult struct {
	Attempted int
	Failures  []failure
	// Latencies holds one client-side Exec round trip per correct query;
	// a failed query has no latency figure.
	Latencies []time.Duration
	Elapsed   time.Duration
}

// runLoad drives the cluster in closed loop: each of clients goroutines
// submits the next query of the list, waits for its reply, checks it and
// repeats. The phase ends after count queries, or, when count is 0, at the
// first query boundary past the deadline. Queries are taken from a shared
// cursor starting at first and wrapping around the list, so the set that ran
// is a contiguous run of the seeded list whatever the interleaving.
func runLoad(c *server.Client, items []queryItem, clients, first, count int, window time.Duration) loadResult {
	var (
		cursor atomic.Int64
		mu     sync.Mutex
		res    loadResult
		wg     sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(window)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lats []time.Duration
			var fails []failure
			n := 0
			for {
				k := int(cursor.Add(1)) - 1
				if count > 0 && k >= count {
					break
				}
				if count == 0 && !time.Now().Before(deadline) {
					break
				}
				idx := (first + k) % len(items)
				it := &items[idx]
				n++
				t0 := time.Now()
				reply, err := c.Exec(it.Origin, it.Body, it.Initial, execTimeout)
				dt := time.Since(t0)
				switch {
				case err != nil:
					fails = append(fails, failure{idx, it.Body, err.Error()})
				case reply.Partial:
					fails = append(fails, failure{idx, it.Body, "partial answer: " + reply.Reason})
				case !sameIDs(reply.IDs, it.Want):
					fails = append(fails, failure{idx, it.Body,
						fmt.Sprintf("answer has %d ids, oracle %d, or they differ", len(reply.IDs), len(it.Want))})
				default:
					lats = append(lats, dt)
				}
			}
			mu.Lock()
			res.Attempted += n
			res.Latencies = append(res.Latencies, lats...)
			res.Failures = append(res.Failures, fails...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res
}

// sameIDs reports whether got, in any order, is exactly the sorted want. It
// sorts got in place.
func sameIDs(got, want []object.ID) bool {
	if len(got) != len(want) {
		return false
	}
	sort.Slice(got, func(a, b int) bool { return got[a].Less(got[b]) })
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercentiles are the tail candidates, highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.9}

// highestSupported returns the highest tail percentile that n samples can
// support: one with at least ten samples beyond it. Below 100 samples only
// the median is reported.
func highestSupported(n int) float64 {
	for _, q := range tailPercentiles {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0.5
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the middle value of vs (mean of the middle two when even).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
