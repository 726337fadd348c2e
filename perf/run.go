package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hyperfile/internal/metrics"
)

// setupRepeats is how many times an untraced run sets the cluster up; it
// reports the median, so one slow boot does not decide setup_s.
const setupRepeats = 3

// floorQueries is how many no-match queries measure server.exec_floor_us.
const floorQueries = 300

// maxListedFailures caps the failures kept in a result.
const maxListedFailures = 20

// runEnv is what every workload of one invocation shares.
type runEnv struct {
	workDir string
	bin     string
	buildS  float64
	// traceOut, when set, receives the traced replay's spans as JSON lines.
	traceOut string
}

// workloadResult is one workload's outcome. EndToEnd is measured with no
// spans anywhere; PerLayer is present only after a traced run.
type workloadResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Clients   int                `json:"clients"`
	Digest    string             `json:"dataset_digest"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []failure          `json:"failures,omitempty"`
	Samples   int                `json:"latency_samples"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// setupTimes is one set-up's phases, in seconds.
type setupTimes struct{ Generate, Write, BootLoad, Warmup float64 }

func (s setupTimes) total() float64 { return s.Generate + s.Write + s.BootLoad + s.Warmup }

// writeDataset writes the per-site JSONL files into dir and records in
// d.digest the digest of those bytes plus the query list.
func writeDataset(d *dataset, dir string) error {
	h := sha256.New()
	for _, id := range d.stage.sites {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("site-%d.jsonl", id)))
		if err != nil {
			return err
		}
		err = d.writeSite(io.MultiWriter(f, h), id)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	d.hashQueries(h)
	d.digest = hex.EncodeToString(h.Sum(nil))
	return nil
}

// setUp performs one full set-up: generate, write, boot and load, warm up.
// The warm-up's outcome is returned so its queries are checked like any
// other.
func setUp(env *runEnv, w workloadSpec, seed int64, round int) (*dataset, *cluster, setupTimes, loadResult, error) {
	var st setupTimes
	fail := func(err error) (*dataset, *cluster, setupTimes, loadResult, error) {
		return nil, nil, st, loadResult{}, err
	}
	t0 := time.Now()
	d, err := generate(w, seed)
	if err != nil {
		return fail(err)
	}
	st.Generate = time.Since(t0).Seconds()

	dir := filepath.Join(env.workDir, fmt.Sprintf("%s-%d", w.Name, round))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail(err)
	}
	t0 = time.Now()
	if err := writeDataset(d, dir); err != nil {
		return fail(err)
	}
	st.Write = time.Since(t0).Seconds()

	t0 = time.Now()
	c, err := startCluster(env.bin, dir)
	if err != nil {
		return fail(err)
	}
	st.BootLoad = time.Since(t0).Seconds()

	warm := runLoad(c.client, d.items, w.Clients, 0, w.Warmup, 0)
	st.Warmup = warm.Elapsed.Seconds()
	return d, c, st, warm, nil
}

// measureWindow runs the timed window as consecutive slices, so that the
// end-to-end rates can be reported as medians over slices: a burst of
// interference shorter than half the window then moves no reported number.
// Counters are scraped and CPU times read while no query is in flight.
func measureWindow(c *cluster, d *dataset, w workloadSpec, window time.Duration) (windowObs, loadResult, error) {
	var (
		obs windowObs
		win loadResult
	)
	before, err := c.scrape()
	if err != nil {
		return obs, win, err
	}
	self0 := selfCPU()
	cpu0, err := c.serverCPU()
	if err != nil {
		return obs, win, err
	}
	slices := max(1, int(window/sliceLength))
	for i := 0; i < slices; i++ {
		r := runLoad(c.client, d.items, w.Clients, w.Warmup+win.Attempted, 0, window/time.Duration(slices))
		cpu1, err := c.serverCPU()
		if err != nil {
			return obs, win, err
		}
		sort.Slice(r.Latencies, func(i, j int) bool { return r.Latencies[i] < r.Latencies[j] })
		obs.Slices = append(obs.Slices, sliceObs{
			Queries: len(r.Latencies), Elapsed: r.Elapsed,
			P50: percentile(r.Latencies, 0.5), ServerCPU: cpu1.sub(cpu0),
		})
		obs.ServerCPU = obs.ServerCPU.add(cpu1.sub(cpu0))
		cpu0 = cpu1
		win.Attempted += r.Attempted
		win.Latencies = append(win.Latencies, r.Latencies...)
		win.Failures = append(win.Failures, r.Failures...)
	}
	obs.ClientCPU = selfCPU().sub(self0)
	after, err := c.scrape()
	if err != nil {
		return obs, win, err
	}
	if obs.RSSMB, err = c.serverRSSMB(); err != nil {
		return obs, win, err
	}
	sort.Slice(win.Latencies, func(i, j int) bool { return win.Latencies[i] < win.Latencies[j] })
	obs.Lat = win.Latencies
	obs.Delta = after.Delta(before)
	return obs, win, nil
}

// runWorkload measures one workload on a fresh cluster. The end-to-end
// window always runs without spans; with trace set, the scraped deltas of
// that same window and a separate in-process traced replay give the
// per-layer numbers.
func runWorkload(env *runEnv, w workloadSpec, seed int64, window time.Duration, trace bool, setups int) (*workloadResult, error) {
	res := &workloadResult{Workload: w.Name, Seed: seed, Seconds: window.Seconds(), Clients: w.Clients}
	note := func(lr loadResult) {
		res.Attempted += lr.Attempted
		res.Failed += len(lr.Failures)
		for _, f := range lr.Failures {
			if len(res.Failures) < maxListedFailures {
				res.Failures = append(res.Failures, f)
			}
		}
	}

	var (
		d     *dataset
		c     *cluster
		times []setupTimes
	)
	for round := 0; round < setups; round++ {
		if c != nil {
			c.stop()
		}
		var (
			st   setupTimes
			warm loadResult
			err  error
		)
		d, c, st, warm, err = setUp(env, w, seed, round)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		note(warm)
		times = append(times, st)
	}
	defer func() {
		if c != nil {
			c.stop()
		}
	}()
	res.Digest = d.digest
	pick := func(f func(setupTimes) float64) float64 {
		vs := make([]float64, len(times))
		for i, t := range times {
			vs[i] = f(t)
		}
		return median(vs)
	}

	obs, win, err := measureWindow(c, d, w, window)
	if err != nil {
		return nil, fmt.Errorf("%s: window: %w", w.Name, err)
	}
	note(win)
	if len(obs.Lat) == 0 {
		return nil, fmt.Errorf("%s: no query completed correctly in the window (failures: %+v)", w.Name, res.Failures)
	}
	res.Samples = len(obs.Lat)
	res.EndToEnd = endToEnd(obs, pick(setupTimes.total))
	if !trace {
		return res, nil
	}

	// Per-layer numbers. Everything below runs after the window closed.
	pl := scraped(obs)
	pl["setup.build_s"] = env.buildS
	pl["setup.generate_s"] = pick(func(t setupTimes) float64 { return t.Generate })
	pl["setup.write_s"] = pick(func(t setupTimes) float64 { return t.Write })
	pl["setup.boot_load_s"] = pick(func(t setupTimes) float64 { return t.BootLoad })
	pl["setup.warmup_s"] = pick(func(t setupTimes) float64 { return t.Warmup })
	pl["server.load_objects_per_s"] = float64(d.stage.total()) / pl["setup.boot_load_s"]

	floor, err := execFloor(c, d)
	if err != nil {
		return nil, fmt.Errorf("%s: floor query: %w", w.Name, err)
	}
	pl["server.exec_floor_us"] = floor
	c.stop()
	c = nil

	fails, err := tracedPass(env, d, seed, pl)
	if err != nil {
		return nil, fmt.Errorf("%s: traced pass: %w", w.Name, err)
	}
	note(loadResult{Attempted: 2 * min(replaySample, len(d.items)), Failures: fails})
	pl["failed_share"] = float64(res.Failed) / float64(res.Attempted)
	budget(pl, res.EndToEnd["server_cpu_ms_per_query"])
	res.PerLayer = pl
	return res, nil
}

// execFloor is the median round trip, in microseconds, of a query that
// processes its one initial object and matches nothing: the live cluster's
// fixed cost per Exec.
func execFloor(c *cluster, d *dataset) (float64, error) {
	it := d.items[0]
	lats := make([]time.Duration, 0, floorQueries)
	for i := 0; i < floorQueries; i++ {
		t0 := time.Now()
		reply, err := c.client.Exec(it.Origin, `Root (NoSuchType, ?, ?) -> T`, it.Initial, execTimeout)
		if err != nil {
			return 0, err
		}
		if len(reply.IDs) != 0 || reply.Partial {
			return 0, errors.New("the no-match query returned results")
		}
		lats = append(lats, time.Since(t0))
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return us(percentile(lats, 0.5)), nil
}

// tracedPass fills pl with every traced (T) metric: the in-process replay of
// the sample with spans on and off, and the direct calls into the layers
// beneath site. It returns the replay's oracle failures.
func tracedPass(env *runEnv, d *dataset, seed int64, pl map[string]float64) ([]failure, error) {
	// A first spans-off replay warms the code paths and is not timed.
	if _, err := replay(d, nil); err != nil {
		return nil, err
	}
	off, err := replay(d, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	on, err := replay(d, tr)
	if err != nil {
		return nil, err
	}
	if env.traceOut != "" {
		if err := writeSpans(env.traceOut, tr.spans); err != nil {
			return nil, err
		}
	}
	q := float64(on.Queries)
	layers := byLayer(tr.spans)
	mean := func(name string) float64 { return nsPer(layers[name].Total, layers[name].Count) }
	pl["site.handle_us_per_msg"] = mean("site.HandleMessage") / 1e3
	pl["site.step_us_per_step"] = mean("site.Step") / 1e3
	pl["wire.encode_ns_per_msg"] = mean("wire.EncodeTo")
	pl["wire.frame_write_ns"] = mean("wire.AppendFrameMsg")
	pl["wire.frame_read_ns"] = mean("wire.ReadFrame")
	pl["wire.decode_ns_per_msg"] = mean("wire.Decode")
	pl["wire.bytes_per_msg"] = float64(on.Bytes) / float64(on.Msgs)
	pl["wire.bytes_per_query"] = float64(on.Bytes) / q
	pl["trace.spans_per_query"] = float64(len(tr.spans)) / q
	pl["trace.overhead_share"] = float64(on.Elapsed-off.Elapsed) / float64(off.Elapsed)
	// What the replay driver itself cost: the query spans' self time.
	pl["trace.driver_self_share"] = float64(layers["query"].Self) / float64(layers["query"].Total)

	sample := d.items[:on.Queries]
	merged, all, err := mergedStore(d.stage)
	if err != nil {
		return nil, err
	}
	if pl["query.parse_us"], pl["query.compile_us"], pl["plan.build_us"], err = timeQueryLayers(sample, merged); err != nil {
		return nil, err
	}
	if pl["engine.step_ns_per_object"], err = timeEngine(sample, merged); err != nil {
		return nil, err
	}
	if pl["store.get_ns"], pl["store.put_ns"], err = timeStore(merged, all, seed); err != nil {
		return nil, err
	}
	if pl["pattern.match_ns_per_tuple"], err = timeMatch(sample[0].Body, all); err != nil {
		return nil, err
	}
	if pl["termination.split_ns"], pl["termination.return_ns"], err = timeTermination(); err != nil {
		return nil, err
	}
	if pl["transport.roundtrip_us"], pl["transport.send_ns"], err = timeTransport(on.Common); err != nil {
		return nil, err
	}
	// site.Step's time that the bare engine does not explain: the site's own
	// bookkeeping around each engine step.
	objectsPerStep := pl["engine.objects_per_query"] / pl["site.steps_per_query"]
	pl["site.step_self_share"] = 1 - pl["engine.step_ns_per_object"]*objectsPerStep/(pl["site.step_us_per_step"]*1e3)
	return append(off.Failures, on.Failures...), nil
}

// sliceLength is the length of one slice of the timed window.
const sliceLength = time.Second

// sliceObs is one slice of the timed window.
type sliceObs struct {
	Queries   int // checked queries completed
	Elapsed   time.Duration
	P50       time.Duration
	ServerCPU cpuTimes
}

// windowObs is everything observed over the timed window.
type windowObs struct {
	Slices    []sliceObs
	Lat       []time.Duration // sorted, one per checked query of any slice
	ServerCPU cpuTimes
	ClientCPU cpuTimes
	RSSMB     float64
	Delta     metrics.Snapshot // summed over the servers
}

// endToEnd derives the metrics a user of the cluster would see. Rates and
// the median latency are medians over the window's slices; a slice in which
// no query completed counts as zero throughput and has no latency or CPU
// figure.
func endToEnd(o windowObs, setupS float64) map[string]float64 {
	var qps, p50, cpu []float64
	for _, s := range o.Slices {
		qps = append(qps, float64(s.Queries)/s.Elapsed.Seconds())
		if s.Queries > 0 {
			p50 = append(p50, ms(s.P50))
			cpu = append(cpu, ms(s.ServerCPU.total())/float64(s.Queries))
		}
	}
	c := o.Delta.Counters
	msgs := c["site_derefs_sent"] + c["site_results_sent"] + c["site_controls_sent"] + c["site_seeds_sent"]
	return map[string]float64{
		"setup_s":                 setupS,
		"queries_per_s":           median(qps),
		"query_p50_ms":            median(p50),
		"server_cpu_ms_per_query": median(cpu),
		// Submit and Complete are the two frames no site counter sees.
		"msgs_per_query": float64(msgs)/float64(len(o.Lat)) + 2,
		"server_rss_mb":  o.RSSMB,
	}
}

// share is num/den, 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// scraped derives the per-layer metrics that come from counter and
// histogram deltas over the window (source S), per checked query.
func scraped(o windowObs) map[string]float64 {
	q := float64(len(o.Lat))
	c := func(name string) float64 { return float64(o.Delta.Counters[name]) }
	h := func(name string) metrics.HistSnapshot { return o.Delta.Histograms[name] }
	tail := highestSupported(len(o.Lat))
	return map[string]float64{
		"query_p99_ms":    ms(percentile(o.Lat, 0.99)),
		"query_tail_ms":   ms(percentile(o.Lat, tail)),
		"query_tail_pct":  tail * 100,
		"latency_samples": float64(len(o.Lat)),

		"server.cpu_user_ms_per_query": ms(o.ServerCPU.User) / q,
		"server.cpu_sys_ms_per_query":  ms(o.ServerCPU.Sys) / q,
		"client.cpu_ms_per_query":      ms(o.ClientCPU.total()) / q,

		"site.steps_per_query":        c("site_steps") / q,
		"site.derefs_sent_per_query":  c("site_derefs_sent") / q,
		"site.local_derefs_per_query": c("site_local_derefs") / q,
		// Objects reached through a remote dereference, as a share of all
		// objects processed. Local dereferences are not the base: every tree
		// leaf's self-loop counts as one and would dilute the share.
		"site.remote_deref_share":       share(c("site_deref_entries_sent"), c("site_objects_processed")),
		"site.results_msgs_per_query":   c("site_results_sent") / q,
		"site.controls_per_query":       c("site_controls_sent") / q,
		"site.step_busy_us_per_query":   float64(h("site_step_us").Sum) / q,
		"site.origin_latency_us_mean":   h("hf_query_latency_us").Mean(),
		"engine.objects_per_query":      c("site_objects_processed") / q,
		"engine.results_per_query":      c("site_results_added") / q,
		"engine.mark_skip_share":        share(c("site_marks_skipped"), c("site_steps")),
		"plan.compiles_per_query":       float64(h("hf_plan_compile_us").Count) / q,
		"plan.compile_us_per_query":     float64(h("hf_plan_compile_us").Sum) / q,
		"termination.splits_per_query":  c("termination_weight_splits") / q,
		"termination.returns_per_query": c("termination_weight_returns") / q,

		"transport.frames_per_query":     c("transport_frames_sent") / q,
		"transport.frames_in_per_query":  (c("transport_frames_received") + c("transport_frames_deduped")) / q,
		"transport.retransmit_share":     share(c("transport_frames_retransmitted"), c("transport_frames_sent")),
		"transport.reconnects_per_query": c("transport_reconnects") / q,
		"transport.dedup_share":          share(c("transport_frames_deduped"), c("transport_frames_received")+c("transport_frames_deduped")),
		"transport.ack_rtt_us_mean":      h("transport_ack_rtt_us").Mean(),
	}
}

// budget multiplies each measured layer cost by how often a query pays it
// and compares the sum with the CPU the servers actually spent. The rows do
// not overlap: engine, store, match, plan and termination time is inside
// HandleMessage and Step; encoding and the write syscall are inside Send.
// Socket reads, ack traffic, scheduling and garbage collection have no row,
// which is what the unaccounted figure shows.
func budget(pl map[string]float64, serverCPUms float64) {
	handled := pl["transport.frames_in_per_query"] * (1 - pl["transport.dedup_share"])
	rows := map[string]float64{
		"budget.site_handle_ms_per_query":    pl["site.handle_us_per_msg"] * handled / 1e3,
		"budget.site_step_ms_per_query":      pl["site.step_us_per_step"] * pl["site.steps_per_query"] / 1e3,
		"budget.transport_send_ms_per_query": pl["transport.send_ns"] * pl["transport.frames_per_query"] / 1e6,
		"budget.wire_receive_ms_per_query":   (pl["wire.frame_read_ns"] + pl["wire.decode_ns_per_msg"]) * pl["transport.frames_in_per_query"] / 1e6,
	}
	sum := 0.0
	for name, v := range rows {
		pl[name] = v
		sum += v
	}
	pl["budget.accounted_share"] = sum / serverCPUms
	pl["budget.unaccounted_ms_per_query"] = serverCPUms - sum
}
