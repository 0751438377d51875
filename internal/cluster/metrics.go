package cluster

import (
	"time"

	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// newGatewayMetrics builds the gateway's Prometheus registry, the
// gateway's one counter surface. Every counter is process-lifetime
// cumulative, so rate() over a scrape series is meaningful.
// Called once from New; registration anywhere else is a wiring bug
// (and flagged by the metricreg analyzer).
func newGatewayMetrics(g *Gateway) *metrics.Registry {
	reg := metrics.NewRegistry()

	g.opLat = reg.HistogramVec("vbs_gateway_op_duration_seconds",
		"End-to-end gateway latency per operation, including node hops.",
		nil, "op")
	// Instantiate the known op labels so the family is scrapeable
	// from boot, before any traffic arrives.
	for _, op := range []string{"load", "vbs_get", "unload", "relocate", "batch"} {
		g.opLat.With(op)
	}

	// Traffic counters.
	reg.CounterFunc("vbs_gateway_proxied_total",
		"Requests proxied to a node.",
		func() float64 { return float64(g.proxied.Load()) })
	reg.CounterFunc("vbs_gateway_replicated_total",
		"Successful write-through and repair replica copies.",
		func() float64 { return float64(g.replicated.Load()) })
	reg.CounterFunc("vbs_gateway_replication_failures_total",
		"Failed replica copies (healed later by read-repair).",
		func() float64 { return float64(g.replicationFails.Load()) })
	reg.CounterFunc("vbs_gateway_failovers_total",
		"Requests served by a non-primary owner.",
		func() float64 { return float64(g.failovers.Load()) })
	reg.CounterFunc("vbs_gateway_read_repairs_total",
		"Degraded replica sets healed after a read.",
		func() float64 { return float64(g.readRepairs.Load()) })
	reg.CounterFunc("vbs_gateway_repair_checks_total",
		"Asynchronous owner-verification sweeps run.",
		func() float64 { return float64(g.repairChecks.Load()) })
	reg.CounterFunc("vbs_gateway_scatter_fallbacks_total",
		"Reads that missed every owner and scattered fleet-wide.",
		func() float64 { return float64(g.scatterFallbacks.Load()) })
	reg.CounterFunc("vbs_gateway_scatters_total",
		"Fleet-wide scatter-gather fan-outs.",
		func() float64 { return float64(g.scatters.Load()) })
	reg.CounterFunc("vbs_gateway_retries_total",
		"Extra per-hop attempts spent on transport-failure retries.",
		func() float64 { return float64(g.retries.Load() + g.reg.Retries()) })
	reg.CounterFunc("vbs_gateway_tombstone_sweeps_total",
		"Deletes spread fleet-wide after a 410 surfaced mid-repair.",
		func() float64 { return float64(g.tombstoneSweeps.Load()) })

	// Membership / topology gauges.
	reg.GaugeFunc("vbs_cluster_nodes",
		"Cluster members in the registry (any health state).",
		func() float64 { return float64(len(g.reg.Names())) })
	reg.GaugeFunc("vbs_cluster_alive_nodes",
		"Cluster members currently reachable.",
		func() float64 { return float64(len(g.aliveNodes())) })
	reg.GaugeFunc("vbs_cluster_replicas",
		"Configured replication factor.",
		func() float64 { return float64(g.replicas) })
	reg.GaugeFunc("vbs_cluster_membership_version",
		"Runtime membership changes (add, drain, remove) since boot.",
		func() float64 { return float64(g.mshipVer.Load()) })
	reg.GaugeFunc("vbs_gateway_uptime_seconds",
		"Seconds since the gateway booted.",
		func() float64 { return time.Since(g.start).Seconds() })

	// Rebalancer: cumulative work counters (never reset by a pass or a
	// job restart) plus the last pass duration.
	rb := g.reb
	reg.CounterFunc("vbs_rebalance_passes_total",
		"Completed rebalance passes.",
		func() float64 { return float64(rb.passes.Load()) })
	reg.CounterFunc("vbs_rebalance_aborted_total",
		"Rebalance passes cut short by a membership change.",
		func() float64 { return float64(rb.aborted.Load()) })
	reg.CounterFunc("vbs_rebalance_blobs_examined_total",
		"Blobs examined against the ring.",
		func() float64 { return float64(rb.examined.Load()) })
	reg.CounterFunc("vbs_rebalance_copies_total",
		"Under-replicated blobs copied to an owner.",
		func() float64 { return float64(rb.copies.Load()) })
	reg.CounterFunc("vbs_rebalance_trims_total",
		"Surplus replicas trimmed off non-owners.",
		func() float64 { return float64(rb.trims.Load()) })
	reg.CounterFunc("vbs_rebalance_tombstones_propagated_total",
		"Delete tombstones spread to holders.",
		func() float64 { return float64(rb.tombs.Load()) })
	reg.CounterFunc("vbs_rebalance_skipped_total",
		"Blobs left alone (referenced, sourceless, or delete raced).",
		func() float64 { return float64(rb.skipped.Load()) })
	reg.CounterFunc("vbs_rebalance_errors_total",
		"Rebalance operations that failed (retried next pass).",
		func() float64 { return float64(rb.errs.Load()) })
	reg.GaugeFunc("vbs_rebalance_last_pass_ms",
		"Duration of the last completed rebalance pass.",
		func() float64 {
			rb.mu.Lock()
			defer rb.mu.Unlock()
			return float64(rb.lastPassMS)
		})

	g.transport = transport.NewMetrics(reg)

	jobs.RegisterMetrics(reg, g.jobs)
	return reg
}
