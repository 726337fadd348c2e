package site

import (
	"fmt"
	"reflect"
	"slices"
	"time"

	"hyperfile/internal/engine"
	"hyperfile/internal/metrics"
	"hyperfile/internal/plan"
)

// siteMetrics caches the site's instruments so hot paths never take the
// registry lock.
type siteMetrics struct {
	reg *metrics.Registry
	statCounters

	steps *metrics.Counter

	termSplits   *metrics.Counter
	termReturns  *metrics.Counter
	termHandOffs *metrics.Counter

	planCacheMisses    *metrics.Counter
	planCacheEvictions *metrics.Counter
	// planOps break down what freshly-built plans compiled to: selection
	// specialization classes and fused select→deref kernels.
	planOpsLiteral *metrics.Counter
	planOpsGlob    *metrics.Counter
	planOpsBinding *metrics.Counter
	planOpsEnv     *metrics.Counter
	planOpsFused   *metrics.Counter

	liveContexts   *metrics.Gauge
	admissionQueue *metrics.Gauge
	stepUS         *metrics.Histogram
	quiescenceUS   *metrics.Histogram
	batchOccupancy *metrics.Histogram
	planCompileUS  *metrics.Histogram
	queryLatencyUS *metrics.Histogram

	// filterSteps[i] counts engine steps that started at filter i, grown
	// lazily (queries rarely exceed a handful of filters).
	filterSteps []*metrics.Counter
}

// statCounters holds the counter behind each Stats field, under the field's
// own name. newSiteMetrics binds each to the registry counter its Stats
// field's metric tag names, so Stats declares every name once.
type statCounters struct {
	DerefsSent, DerefEntriesSent, DerefsBatched, DerefsSuppressed, DerefsReceived,
	ResultsSent, ResultsReceived, ControlsSent, ControlsReceived,
	SeedsSent, SeedsReceived, Forwards, Completed, MigrationsOut, MigrationsIn,
	PlanCompiles, PlanCacheHits, Admitted, Rejected, Shed, Cancelled,
	DeadlineExpired, FairDeferred *metrics.Counter
	Engine struct {
		Processed, Results, LocalDerefs, RemoteDerefs, Skipped, Missing,
		Fetched, TuplesScanned *metrics.Counter
	}
}

// statField is one counter of Stats: its field names from Stats down (e.g.
// Engine, Processed) and the registry counter its metric tag names.
type statField struct {
	path []string
	name string
}

// statFields lists every counter of Stats in declaration order.
var statFields = fieldsOf(reflect.TypeOf(Stats{}), nil)

func fieldsOf(t reflect.Type, prefix []string) []statField {
	var fs []statField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		path := append(slices.Clip(prefix), f.Name)
		if f.Type.Kind() == reflect.Struct {
			fs = append(fs, fieldsOf(f.Type, path)...)
			continue
		}
		fs = append(fs, statField{path: path, name: f.Tag.Get("metric")})
	}
	return fs
}

// in returns the field at f's path in the struct v.
func (f statField) in(v reflect.Value) reflect.Value {
	for _, name := range f.path {
		v = v.FieldByName(name)
	}
	return v
}

// StatsOf reads Stats out of a registry snapshot's counters: one site's, or
// several sites' summed with metrics.Snapshot.Add.
func StatsOf(snap metrics.Snapshot) Stats {
	var st Stats
	v := reflect.ValueOf(&st).Elem()
	for _, f := range statFields {
		f.in(v).SetInt(int64(snap.Counters[f.name]))
	}
	return st
}

func newSiteMetrics(reg *metrics.Registry) siteMetrics {
	m := siteMetrics{reg: reg}
	c := reflect.ValueOf(&m.statCounters).Elem()
	for _, f := range statFields {
		f.in(c).Set(reflect.ValueOf(reg.Counter(f.name)))
	}
	m.steps = reg.Counter("site_steps")
	m.termSplits = reg.Counter("termination_weight_splits")
	m.termReturns = reg.Counter("termination_weight_returns")
	m.termHandOffs = reg.Counter("termination_weight_handoffs")
	m.planCacheMisses = reg.Counter("hf_plan_cache_misses")
	m.planCacheEvictions = reg.Counter("hf_plan_cache_evictions")
	m.planOpsLiteral = reg.Counter("hf_plan_ops_literal")
	m.planOpsGlob = reg.Counter("hf_plan_ops_glob")
	m.planOpsBinding = reg.Counter("hf_plan_ops_binding")
	m.planOpsEnv = reg.Counter("hf_plan_ops_env")
	m.planOpsFused = reg.Counter("hf_plan_ops_fused")
	m.liveContexts = reg.Gauge("site_live_contexts")
	m.admissionQueue = reg.Gauge("hf_admission_queue")
	m.stepUS = reg.Histogram("site_step_us")
	m.quiescenceUS = reg.Histogram("site_query_quiescence_us")
	m.batchOccupancy = reg.Histogram("hf_deref_batch_occupancy")
	m.planCompileUS = reg.Histogram("hf_plan_compile_us")
	m.queryLatencyUS = reg.Histogram("hf_query_latency_us")
	return m
}

// notePlanOps records the operator breakdown of a freshly-built plan.
func (m *siteMetrics) notePlanOps(c plan.Counts) {
	m.planOpsLiteral.Add(uint64(c.Classes[plan.ClassLiteral]))
	m.planOpsGlob.Add(uint64(c.Classes[plan.ClassGlob]))
	m.planOpsBinding.Add(uint64(c.Classes[plan.ClassBinding]))
	m.planOpsEnv.Add(uint64(c.Classes[plan.ClassEnv]))
	m.planOpsFused.Add(uint64(c.Fused))
}

// filterStep returns the per-filter step counter for filter index i.
func (m *siteMetrics) filterStep(i int) *metrics.Counter {
	if i < 0 {
		return nil
	}
	for len(m.filterSteps) <= i {
		m.filterSteps = append(m.filterSteps,
			m.reg.Counter(fmt.Sprintf("site_filter_%d_steps", len(m.filterSteps))))
	}
	return m.filterSteps[i]
}

// noteRun feeds the step and engine counters and the step histogram from
// one engine run's own report of what it added to the engine's Stats.
func (m *siteMetrics) noteRun(r *engine.Run, dur time.Duration) {
	e, d := &m.Engine, &r.Stats
	m.steps.Add(uint64(r.Steps))
	e.Processed.Add(uint64(d.Processed))
	e.Results.Add(uint64(d.Results))
	e.LocalDerefs.Add(uint64(d.LocalDerefs))
	e.RemoteDerefs.Add(uint64(d.RemoteDerefs))
	e.Skipped.Add(uint64(d.Skipped))
	e.Missing.Add(uint64(d.Missing))
	e.Fetched.Add(uint64(d.Fetched))
	e.TuplesScanned.Add(uint64(d.TuplesScanned))
	m.stepUS.ObserveDuration(dur)
	m.filterStep(r.Start).Add(uint64(r.Steps))
}
