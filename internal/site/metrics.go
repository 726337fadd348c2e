package site

import (
	"fmt"
	"time"

	"hyperfile/internal/engine"
	"hyperfile/internal/metrics"
	"hyperfile/internal/plan"
)

// siteMetrics caches the site's instruments so hot paths never take the
// registry lock. With no registry configured every field is nil and every
// update is a no-op (the instruments are nil-safe).
type siteMetrics struct {
	reg *metrics.Registry

	steps        *metrics.Counter
	processed    *metrics.Counter
	resultsAdded *metrics.Counter
	marksSkipped *metrics.Counter
	missing      *metrics.Counter
	localDerefs  *metrics.Counter

	derefsSent       *metrics.Counter
	derefEntriesSent *metrics.Counter
	derefsBatched    *metrics.Counter
	derefsSuppressed *metrics.Counter
	derefsReceived   *metrics.Counter
	resultsSent      *metrics.Counter
	resultsReceived  *metrics.Counter
	controlsSent     *metrics.Counter
	controlsReceived *metrics.Counter
	seedsSent        *metrics.Counter
	seedsReceived    *metrics.Counter
	forwards         *metrics.Counter
	completed        *metrics.Counter

	termSplits   *metrics.Counter
	termReturns  *metrics.Counter
	termHandOffs *metrics.Counter

	// Overload protection (Config.MaxInflight / QueryDeadline).
	admitted        *metrics.Counter
	rejected        *metrics.Counter
	shed            *metrics.Counter
	cancelled       *metrics.Counter
	deadlineExpired *metrics.Counter

	// fairDeferred counts scheduling turns taken while another client
	// waited in the same round robin (Stats.FairDeferred).
	fairDeferred *metrics.Counter

	planCacheHits      *metrics.Counter
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

func newSiteMetrics(reg *metrics.Registry) siteMetrics {
	m := siteMetrics{reg: reg}
	if reg == nil {
		return m
	}
	m.steps = reg.Counter("site_steps")
	m.processed = reg.Counter("site_objects_processed")
	m.resultsAdded = reg.Counter("site_results_added")
	m.marksSkipped = reg.Counter("site_marks_skipped")
	m.missing = reg.Counter("site_missing_objects")
	m.localDerefs = reg.Counter("site_local_derefs")
	m.derefsSent = reg.Counter("site_derefs_sent")
	m.derefEntriesSent = reg.Counter("site_deref_entries_sent")
	m.derefsBatched = reg.Counter("hf_deref_batched")
	m.derefsSuppressed = reg.Counter("hf_deref_suppressed")
	m.derefsReceived = reg.Counter("site_derefs_received")
	m.resultsSent = reg.Counter("site_results_sent")
	m.resultsReceived = reg.Counter("site_results_received")
	m.controlsSent = reg.Counter("site_controls_sent")
	m.controlsReceived = reg.Counter("site_controls_received")
	m.seedsSent = reg.Counter("site_seeds_sent")
	m.seedsReceived = reg.Counter("site_seeds_received")
	m.forwards = reg.Counter("site_forwards")
	m.completed = reg.Counter("site_completed")
	m.termSplits = reg.Counter("termination_weight_splits")
	m.termReturns = reg.Counter("termination_weight_returns")
	m.termHandOffs = reg.Counter("termination_weight_handoffs")
	m.admitted = reg.Counter("hf_admitted")
	m.rejected = reg.Counter("hf_rejected")
	m.shed = reg.Counter("hf_shed")
	m.cancelled = reg.Counter("hf_cancelled")
	m.deadlineExpired = reg.Counter("hf_deadline_expired")
	m.fairDeferred = reg.Counter("hf_fair_deferred")
	m.planCacheHits = reg.Counter("hf_plan_cache_hits")
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
	if m.reg == nil || i < 0 {
		return nil
	}
	for len(m.filterSteps) <= i {
		m.filterSteps = append(m.filterSteps,
			m.reg.Counter(fmt.Sprintf("site_filter_%d_steps", len(m.filterSteps))))
	}
	return m.filterSteps[i]
}

// noteRun feeds the step counters and the step histogram from one engine
// run's own report, so each counter moves by exactly what the run added to
// the engine's Stats.
func (m *siteMetrics) noteRun(r *engine.Run, dur time.Duration) {
	m.steps.Add(uint64(r.Steps))
	m.processed.Add(uint64(r.Processed))
	m.resultsAdded.Add(uint64(r.Results))
	m.marksSkipped.Add(uint64(r.Skipped))
	m.missing.Add(uint64(r.Missing))
	m.localDerefs.Add(uint64(r.LocalSpawned))
	m.stepUS.ObserveDuration(dur)
	m.filterStep(r.Start).Add(uint64(r.Steps))
}
