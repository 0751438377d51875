package server

import (
	"strconv"
	"time"

	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// newServerMetrics builds the node's Prometheus registry (served at
// GET /metrics) and stores the hot-path instruments on the server.
// Counters bridge the pre-existing atomics and subsystem stats — all
// cumulative since boot, nothing resets on read — while levels are
// gauges refreshed at scrape time.
func newServerMetrics(s *Server) *metrics.Registry {
	reg := metrics.NewRegistry()

	s.opLat = reg.HistogramVec("vbs_server_op_duration_seconds",
		"Latency of daemon operations by op (load includes store admission, decode and placement).",
		nil, "op")
	// Instantiate the known op labels up front so the family is
	// scrapeable from boot: an idle (or freshly restarted) node must
	// not look like one with a missing histogram.
	for _, op := range []string{"load", "vbs_get", "unload", "vbs_put", "vbs_delete", "relocate", "batch"} {
		s.opLat.With(op)
	}
	s.decodeLat = reg.Histogram("vbs_decode_duration_seconds",
		"Latency of VBS de-virtualization (cache misses only).", nil)

	reg.GaugeFunc("vbs_server_uptime_seconds", "Seconds since the daemon started.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("vbs_server_tasks", "Tasks currently loaded on this node.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.tasks))
		})

	reg.CounterFunc("vbs_decode_total", "VBS containers de-virtualized since boot.",
		func() float64 { return float64(s.decodes.Load()) })
	reg.CounterFunc("vbs_compactions_total", "Fabric compaction runs (explicit and auto-retry).",
		func() float64 { return float64(s.compactions.Load()) })
	reg.CounterFunc("vbs_compaction_moved_total", "Tasks relocated by compactions.",
		func() float64 { return float64(s.compactMoved.Load()) })
	reg.CounterFunc("vbs_load_retries_total", "Loads that succeeded only after the auto-compaction retry.",
		func() float64 { return float64(s.retryLoads.Load()) })

	reg.CounterFunc("vbs_cache_hits_total", "Decoded-bitstream cache hits.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	reg.CounterFunc("vbs_cache_misses_total", "Decoded-bitstream cache misses.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	reg.CounterFunc("vbs_cache_evictions_total", "Decoded-bitstream cache evictions.",
		func() float64 { return float64(s.cache.Stats().Evictions) })
	reg.GaugeFunc("vbs_cache_entries", "Decoded bitstreams resident in the cache.",
		func() float64 { return float64(s.cache.Stats().Entries) })
	reg.GaugeFunc("vbs_cache_used_bits", "Raw bits held by the decoded cache.",
		func() float64 { return float64(s.cache.Stats().Used) })
	reg.GaugeFunc("vbs_cache_capacity_bits", "Decoded cache capacity in bits (0 = unbounded).",
		func() float64 { return float64(s.cache.Stats().Capacity) })

	reg.GaugeFunc("vbs_store_entries", "VBS blobs resident in the RAM tier.",
		func() float64 { return float64(s.store.Len()) })
	reg.GaugeFunc("vbs_store_bytes", "Bytes the RAM tier retains: containers plus their parsed form.",
		func() float64 { return float64(s.store.Bytes()) })
	reg.GaugeFunc("vbs_store_compression_ratio_mean", "Mean VBS-size/raw-size over RAM-tier blobs (the paper's Fig. 4 ratio; 0 when empty).",
		func() float64 { return s.store.MeanCompressionRatio() })
	reg.CounterFunc("vbs_store_demotions_total", "RAM evictions that left a blob disk-only.",
		func() float64 { return float64(s.store.TierStats().Demotions) })
	reg.CounterFunc("vbs_store_promotions_total", "RAM misses served by re-reading from disk.",
		func() float64 { return float64(s.store.TierStats().Promotions) })

	if disk := s.store.Disk(); disk != nil {
		reg.GaugeFunc("vbs_repo_blobs", "Blobs indexed in the persistent tier.",
			func() float64 { return float64(disk.Stats().Blobs) })
		reg.GaugeFunc("vbs_repo_bytes", "Payload bytes indexed in the persistent tier.",
			func() float64 { return float64(disk.Stats().Bytes) })
		reg.GaugeFunc("vbs_repo_tombstones", "Live delete tombstones blocking re-admission.",
			func() float64 { return float64(disk.Stats().Tombstones) })
		reg.GaugeFunc("vbs_repo_recovered_blobs", "Blobs the boot recovery scan re-indexed.",
			func() float64 { return float64(disk.Stats().Recovered) })
		reg.CounterFunc("vbs_repo_reads_total", "Blob payloads served from disk.",
			func() float64 { return float64(disk.Stats().Reads) })
		reg.CounterFunc("vbs_repo_writes_total", "Blob payloads persisted to disk.",
			func() float64 { return float64(disk.Stats().Writes) })
		reg.CounterFunc("vbs_repo_read_errors_total", "Failed non-corrupt disk reads.",
			func() float64 { return float64(disk.Stats().ReadErrors) })
		reg.CounterFunc("vbs_repo_write_errors_total", "Failed disk writes.",
			func() float64 { return float64(disk.Stats().WriteErrors) })
		reg.CounterFunc("vbs_repo_quarantined_total", "Corrupt blobs quarantined (boot scan plus read-time).",
			func() float64 { return float64(disk.Stats().Quarantined) })
	}

	fabFree := reg.GaugeVec("vbs_fabric_free_macros",
		"Free macro-cells per fabric.", "fabric")
	fabTasks := reg.GaugeVec("vbs_fabric_tasks",
		"Tasks resident per fabric.", "fabric")
	reg.OnCollect(func() {
		for i, c := range s.ctrls {
			st := c.Stats()
			fabFree.With(strconv.Itoa(i)).Set(float64(st.FreeMacros))
			fabTasks.With(strconv.Itoa(i)).Set(float64(st.Tasks))
		}
	})

	s.transport = transport.NewMetrics(reg)

	jobs.RegisterMetrics(reg, s.jobs)
	return reg
}
