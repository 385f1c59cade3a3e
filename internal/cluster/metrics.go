package cluster

import (
	"strings"

	"repro/internal/obs"
	"repro/internal/serve"
)

// coordMetrics is every coordinator /metrics series. Cluster-wide series
// are registered once at startup (the request and durable-tier series
// under the shared serve names, with the coordinator_ prefix); per-worker series (queue depth, steals
// from, requeues after death) are registered at registration time with
// the sanitized worker ID baked into the name, so a scrape always shows
// one row per known worker.
type coordMetrics struct {
	set  *obs.MetricSet
	http *serve.RequestMetrics

	workersLive    *obs.Metric
	workersTotal   *obs.Metric
	workerDeaths   *obs.Metric
	heartbeats     *obs.Metric
	jobsAccepted   *obs.Metric
	jobsCompleted  *obs.Metric
	jobsFailed     *obs.Metric
	jobsRetriable  *obs.Metric
	leasesGranted  *obs.Metric
	cellsTotal     *obs.Metric
	cellsCompleted *obs.Metric
	cellsFailed    *obs.Metric
	cellsStolen    *obs.Metric
	cellsRequeued  *obs.Metric
	cellsFromStore *obs.Metric
	pendingCells   *obs.Metric
	streamDropped  *obs.Metric

	leaseHarvest *obs.Histogram
}

func newCoordMetrics() *coordMetrics {
	s := obs.NewMetricSet()
	return &coordMetrics{
		set:            s,
		http:           serve.NewRequestMetrics(s, "coordinator"),
		workersLive:    s.Gauge("coordinator_workers_live", "registered workers currently considered alive"),
		workersTotal:   s.Counter("coordinator_workers_registered_total", "worker registrations accepted (including re-registrations)"),
		workerDeaths:   s.Counter("coordinator_worker_deaths_total", "workers declared dead (heartbeat timeout or transport failure)"),
		heartbeats:     s.Counter("coordinator_heartbeats_total", "heartbeats received"),
		jobsAccepted:   s.Counter("coordinator_jobs_accepted_total", "sweep jobs accepted"),
		jobsCompleted:  s.Counter("coordinator_jobs_completed_total", "sweep jobs finished successfully"),
		jobsFailed:     s.Counter("coordinator_jobs_failed_total", "sweep jobs finished with an error"),
		jobsRetriable:  s.Counter("coordinator_jobs_retriable_total", "sweep jobs handed back retriable (drain or crash recovery)"),
		leasesGranted:  s.Counter("coordinator_leases_granted_total", "leases granted to workers"),
		cellsTotal:     s.Counter("coordinator_cells_total", "sweep cells accepted for execution"),
		cellsCompleted: s.Counter("coordinator_cells_completed_total", "sweep cells completed"),
		cellsFailed:    s.Counter("coordinator_cells_failed_total", "sweep cells that failed on a healthy worker"),
		cellsStolen:    s.Counter("coordinator_steals_total", "cells stolen from a straggler's lease for an idle worker"),
		cellsRequeued:  s.Counter("coordinator_requeues_total", "cells requeued after a worker death"),
		cellsFromStore: s.Counter("coordinator_cells_from_store_total", "sweep cells restored from the durable store without leasing"),
		pendingCells:   s.Gauge("coordinator_pending_cells", "cells accepted but not yet completed"),
		streamDropped:  s.Counter("coordinator_stream_dropped_events_total", "progress-stream events dropped on slow subscribers"),
		leaseHarvest:   s.Histogram("coordinator_lease_harvest_us", "lease lifetime from grant to final harvest in microseconds"),
	}
}

// workerMetrics is the per-worker series bundle.
type workerMetrics struct {
	pending  *obs.Metric // cells currently leased to this worker
	steals   *obs.Metric // cells stolen from this worker's leases
	requeues *obs.Metric // cells requeued off this worker after a death
}

// metricName sanitizes a worker ID into the Prometheus name alphabet:
// the ID charset is [A-Za-z0-9._-], so '.' and '-' map to '_' and
// uppercase folds down.
func metricName(prefix, workerID string) string {
	var b strings.Builder
	b.WriteString(prefix)
	for i := 0; i < len(workerID); i++ {
		c := workerID[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			b.WriteByte(c)
		case c >= 'A' && c <= 'Z':
			b.WriteByte(c - 'A' + 'a')
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// forWorker registers (or returns) the per-worker series for id.
func (m *coordMetrics) forWorker(id string) workerMetrics {
	return workerMetrics{
		pending:  m.set.Gauge(metricName("coordinator_worker_pending_cells_", id), "cells currently leased to this worker"),
		steals:   m.set.Counter(metricName("coordinator_worker_steals_total_", id), "cells stolen from this worker's leases"),
		requeues: m.set.Counter(metricName("coordinator_worker_requeues_total_", id), "cells requeued off this worker after it was declared dead"),
	}
}
