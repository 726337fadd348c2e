package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"hyperfile/internal/chaos"
	"hyperfile/internal/cluster"
	"hyperfile/internal/object"
	"hyperfile/internal/sim"
	"hyperfile/internal/site"
	"hyperfile/internal/workload"
)

// LoadConfig parameterizes RunLoad, the open-loop overload harness behind
// cmd/hfload and BENCH_load.json. Unlike the simulator experiments it runs
// real goroutine clusters on the wall clock, so absolute numbers vary by
// host; the machine-checkable claims are the bounded ones (no hangs, no
// errors, every answer within the deadline envelope), not the latencies.
type LoadConfig struct {
	// Machines and Objects shape the cluster and dataset.
	Machines int
	Objects  int
	Seed     int64

	// Tuning passes whole into cluster.Options. MaxInflight,
	// AdmissionQueue and QueryDeadline are the overload knobs under test.
	site.Tuning

	// Calibration is how many closed-loop queries estimate the cluster's
	// capacity (arrival rates are expressed as multiples of it).
	Calibration int
	// Queries is the number of open-loop arrivals per load point.
	Queries int
	// Multipliers are the offered-load points, as multiples of the
	// calibrated capacity; 2.0 is the "2x capacity" acceptance point.
	Multipliers []float64
	// Timeout is the client-side per-query deadline — the hang bound.
	Timeout time.Duration
	// Chaos subjects every frame below the transport's reliability layer to
	// faults (drop, duplicate, delay, reorder, seeded from Seed), so the
	// load points run against degraded links — the acceptance regime is
	// "2x capacity with chaos", not a clean LAN.
	Chaos bool
}

// DefaultLoad returns a configuration sized for a CI smoke run: a small
// dataset, a tight admission bound so overload actually engages, and load
// points at half, full, and twice the calibrated capacity.
func DefaultLoad() LoadConfig {
	return LoadConfig{
		Machines:    3,
		Objects:     90,
		Seed:        1,
		Tuning:      site.Tuning{MaxInflight: 4, AdmissionQueue: 8, QueryDeadline: 2 * time.Second},
		Calibration: 32,
		Queries:     128,
		Multipliers: []float64{0.5, 1, 2, 4},
		Timeout:     10 * time.Second,
		Chaos:       true,
	}
}

// LoadPoint is one offered-load level's outcome tally. Every arrival is
// accounted for exactly once: OK + Partial + Rejected + Errors + Hangs ==
// Offered.
type LoadPoint struct {
	Multiplier float64 `json:"multiplier"`
	TargetQPS  float64 `json:"target_qps"`
	Offered    int     `json:"offered"`

	// OK answered completely; Partial answered with an annotated partial
	// (deadline expired, client cancel); Rejected was refused by admission
	// control with the typed error; Errors is anything else — a correctness
	// failure. Hangs never returned within the harness deadline at all: the
	// failure mode this subsystem exists to eliminate.
	OK       int `json:"ok"`
	Partial  int `json:"partial"`
	Rejected int `json:"rejected"`
	Errors   int `json:"errors"`
	Hangs    int `json:"hangs"`

	// Latency quantiles over every answered arrival (µs, nearest rank over
	// the sorted latencies) and their mean.
	P50US  uint64  `json:"p50_us"`
	P95US  uint64  `json:"p95_us"`
	P99US  uint64  `json:"p99_us"`
	MeanUS float64 `json:"mean_us"`

	// Site-counter deltas summed over the cluster for this point.
	Admitted        int `json:"admitted"`
	Shed            int `json:"shed"`
	Cancelled       int `json:"cancelled"`
	DeadlineExpired int `json:"deadline_expired"`
}

// LoadResult is the machine-checkable record behind BENCH_load.json.
type LoadResult struct {
	Machines        int         `json:"machines"`
	Objects         int         `json:"objects"`
	Seed            int64       `json:"seed"`
	MaxInflight     int         `json:"max_inflight"`
	AdmissionQueue  int         `json:"admission_queue"`
	QueryDeadlineMS int64       `json:"query_deadline_ms"`
	CapacityQPS     float64     `json:"capacity_qps"`
	Points          []LoadPoint `json:"points"`
}

// JSON renders the result as indented JSON with a trailing newline.
func (r *LoadResult) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Check enforces the overload-safety gates on a finished run: no hangs, no
// untyped errors, every arrival accounted for, and answered latencies inside
// the deadline envelope (query deadline + client timeout — anything beyond
// means a query escaped both bounds). Latency magnitudes themselves are
// host-dependent and deliberately not gated.
func (r *LoadResult) Check(cfg LoadConfig) error {
	envelope := uint64((cfg.QueryDeadline + cfg.Timeout).Microseconds())
	for _, p := range r.Points {
		if p.Hangs > 0 {
			return fmt.Errorf("load x%.1f: %d queries hung past the harness deadline", p.Multiplier, p.Hangs)
		}
		if p.Errors > 0 {
			return fmt.Errorf("load x%.1f: %d queries failed with untyped errors", p.Multiplier, p.Errors)
		}
		if got := p.OK + p.Partial + p.Rejected; got != p.Offered {
			return fmt.Errorf("load x%.1f: %d of %d arrivals unaccounted for", p.Multiplier, p.Offered-got, p.Offered)
		}
		if cfg.QueryDeadline > 0 && p.P99US > envelope {
			return fmt.Errorf("load x%.1f: p99 %dµs escaped the deadline envelope %dµs", p.Multiplier, p.P99US, envelope)
		}
	}
	return nil
}

// loadQueries is the query mix: a cheap tree walk, a scattered random walk,
// a select-everything keyword closure, and the worst-case chain.
func loadQueries() []string {
	return []string{
		workload.ClosureQuery("Tree", "Rand10", 5),
		workload.ClosureQuery("Rand50", "Rand10", 3),
		workload.ClosureQueryKeyword("Tree", "Common", "all"),
		workload.ClosureQuery("Chain", "Rand100", 17),
	}
}

// arrival is one precomputed open-loop arrival of a load point.
type arrival struct {
	at     time.Duration
	origin object.SiteID
	body   string
}

// arrivalSchedule draws a load point's full arrival schedule up front from
// the point's seed: exponential gaps at targetQPS, origins round-robin,
// bodies cycling the query mix. runLoadPoint fires exactly this schedule, so
// LoadScenario can record it for virtual-time replay.
func arrivalSchedule(cfg LoadConfig, multiplier, targetQPS float64) []arrival {
	queries := loadQueries()
	rng := rand.New(rand.NewSource(cfg.Seed + int64(multiplier*1000)))
	sched := make([]arrival, cfg.Queries)
	at := time.Duration(0)
	for i := range sched {
		at += time.Duration(rng.ExpFloat64() / targetQPS * float64(time.Second))
		sched[i] = arrival{
			at:     at,
			origin: object.SiteID(i%cfg.Machines + 1),
			body:   queries[i%len(queries)],
		}
	}
	return sched
}

// LoadScenario records a load point's exact arrival schedule — the one
// runLoadPoint fires on the wall clock — as a declarative simulator scenario:
// the same dataset seed, the same cluster options, every arrival pinned to
// its drawn offset. An overload incident observed under hfload thereby
// re-simulates deterministically under hfsim, in virtual time, on any host.
func LoadScenario(cfg LoadConfig, multiplier, targetQPS float64) *sim.Scenario {
	sched := arrivalSchedule(cfg, multiplier, targetQPS)
	qs := make([]sim.Query, len(sched))
	for i, a := range sched {
		qs[i] = sim.Query{AtUS: a.at.Microseconds(), Origin: int(a.origin), Body: a.body, Region: -1}
	}
	// Virtual time keeps no wall-clock deadline or heartbeat: record only
	// the knobs a spec file carries, so the spec runs the same after a
	// round trip through JSON.
	exec := cfg.Tuning
	exec.QueryDeadline, exec.HeartbeatInterval, exec.SuspectAfter = 0, 0, 0
	return &sim.Scenario{
		Name: fmt.Sprintf("hfload-x%g", multiplier),
		Comment: fmt.Sprintf(
			"recorded hfload arrival schedule at x%g calibrated capacity (%.1f qps)",
			multiplier, targetQPS),
		Seed:     cfg.Seed,
		Sites:    cfg.Machines,
		Topology: sim.Topology{Kind: "uniform"},
		Workload: sim.Workload{Kind: "paper", Objects: cfg.Objects, Queries: qs},
		Exec:     exec,
	}
}

// RunLoad calibrates the cluster's closed-loop capacity, then drives
// open-loop Poisson arrivals at each configured multiple of it, classifying
// every outcome. Open loop matters: a closed-loop driver slows down with the
// system and can never overload it, while real clients keep arriving — the
// regime admission control exists for.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	opts := cluster.Options{Tuning: cfg.Tuning}
	if cfg.Chaos {
		opts.Chaos = &chaos.Config{
			Seed:        cfg.Seed,
			DropRate:    0.05,
			DupRate:     0.05,
			DelayRate:   0.30,
			MinDelay:    time.Millisecond,
			MaxDelay:    3 * time.Millisecond,
			ReorderRate: 0.10,
		}
	}
	c := cluster.NewLocal(cfg.Machines, opts)
	defer c.Close()
	d, err := workload.Build(c, workload.Spec{
		N: cfg.Objects, Machines: cfg.Machines, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	out := &LoadResult{
		Machines: cfg.Machines, Objects: cfg.Objects, Seed: cfg.Seed,
		MaxInflight: cfg.MaxInflight, AdmissionQueue: cfg.AdmissionQueue,
		QueryDeadlineMS: cfg.QueryDeadline.Milliseconds(),
	}
	out.CapacityQPS, err = calibrate(c, d, cfg)
	if err != nil {
		return nil, err
	}
	for _, m := range cfg.Multipliers {
		pt, err := runLoadPoint(c, d, cfg, m, out.CapacityQPS*m)
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, *pt)
	}
	return out, nil
}

// calibrate estimates sustainable throughput with a closed loop at the
// admission bound's concurrency: workers re-submit as soon as they get an
// answer, so completion rate ≈ capacity.
func calibrate(c *cluster.LocalCluster, d *workload.Dataset, cfg LoadConfig) (float64, error) {
	workers := cfg.MaxInflight
	if workers <= 0 {
		workers = 4
	}
	n := cfg.Calibration
	if n <= 0 {
		n = workers
	}
	queries := loadQueries()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	var next int64
	var mu sync.Mutex
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := int(next)
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				origin := object.SiteID(i%cfg.Machines + 1)
				_, err := c.Exec(origin, queries[i%len(queries)], []object.ID{d.Root}, cfg.Timeout)
				if err != nil {
					errs <- fmt.Errorf("calibration query %d: %w", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		elapsed = time.Millisecond
	}
	return float64(n) / elapsed.Seconds(), nil
}

// runLoadPoint fires cfg.Queries arrivals with exponential inter-arrival
// times at targetQPS, never waiting for answers before the next arrival.
func runLoadPoint(c *cluster.LocalCluster, d *workload.Dataset, cfg LoadConfig, multiplier, targetQPS float64) (*LoadPoint, error) {
	if targetQPS <= 0 {
		return nil, fmt.Errorf("load x%.1f: target rate %.2f qps is not positive", multiplier, targetQPS)
	}
	pt := &LoadPoint{Multiplier: multiplier, TargetQPS: targetQPS, Offered: cfg.Queries}
	st0 := c.TotalStats()
	sched := arrivalSchedule(cfg, multiplier, targetQPS)

	type outcome int
	const (
		outOK outcome = iota
		outPartial
		outRejected
		outError
	)
	type answer struct {
		outcome
		lat time.Duration
	}
	results := make(chan answer, cfg.Queries)
	var wg sync.WaitGroup
	prev := time.Duration(0)
	for i := 0; i < cfg.Queries; i++ {
		// Poisson arrivals, precomputed so the schedule is independent of
		// completion times (open loop) and recordable as a scenario.
		time.Sleep(sched[i].at - prev)
		prev = sched[i].at
		origin := sched[i].origin
		body := sched[i].body
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			res, err := c.Exec(origin, body, []object.ID{d.Root}, cfg.Timeout)
			a := answer{outError, time.Since(start)}
			switch {
			case err == nil && res != nil && !res.Partial:
				a.outcome = outOK
			case err == nil || res != nil:
				// Partial answers arrive with nil err (server-side expiry)
				// or alongside ErrTimeout (client-side cancel recovery).
				a.outcome = outPartial
			case errors.Is(err, cluster.ErrRejected):
				a.outcome = outRejected
			}
			results <- a
		}()
	}

	// Hang bound: everything must return within the client timeout plus the
	// cancel-recovery grace. Queries still unaccounted after that are hangs —
	// the harness's reason for existing.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	hangTimer := time.NewTimer(cfg.Timeout + cfg.QueryDeadline + 10*time.Second)
	defer hangTimer.Stop()
	select {
	case <-done:
	case <-hangTimer.C:
	}
	// Drain what has arrived without closing the channel: a hung query that
	// limps in later sends into the buffer harmlessly instead of panicking.
	var lat []time.Duration
drain:
	for {
		select {
		case a := <-results:
			lat = append(lat, a.lat)
			switch a.outcome {
			case outOK:
				pt.OK++
			case outPartial:
				pt.Partial++
			case outRejected:
				pt.Rejected++
			default:
				pt.Errors++
			}
		default:
			break drain
		}
	}
	pt.Hangs = pt.Offered - pt.OK - pt.Partial - pt.Rejected - pt.Errors

	pt.noteLatencies(lat)

	st1 := c.TotalStats()
	pt.Admitted, pt.Shed = st1.Admitted-st0.Admitted, st1.Shed-st0.Shed
	pt.Cancelled, pt.DeadlineExpired = st1.Cancelled-st0.Cancelled, st1.DeadlineExpired-st0.DeadlineExpired
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("load x%.1f: cluster error: %w", multiplier, err)
	}
	return pt, nil
}

// noteLatencies sets pt's quantiles, by nearest rank over the sorted sample,
// and its mean from the latencies of its answered arrivals.
func (pt *LoadPoint) noteLatencies(lat []time.Duration) {
	if len(lat) == 0 {
		return
	}
	slices.Sort(lat)
	rank := func(q float64) uint64 {
		return uint64(lat[max(int(math.Ceil(q*float64(len(lat)))), 1)-1].Microseconds())
	}
	pt.P50US, pt.P95US, pt.P99US = rank(0.50), rank(0.95), rank(0.99)
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	pt.MeanUS = float64(sum) / float64(len(lat)) / float64(time.Microsecond)
}
