package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
)

// layerTimings maps each per-layer timing metric to the span name it
// is the median of. scale converts span microseconds to the metric's
// unit; per is how many calls one span of that name packs.
var layerTimings = []struct {
	metric, span, unit string
	scale, per         float64
}{
	{"server.body_parse_us", "server.body_parse", "us", 1, 1},
	{"server.reply_encode_us", "server.reply_encode", "us", 1, 1},
	{"store.digest_us", "store.digest", "us", 1, 1},
	{"store.put_hit_us", "store.put_hit", "us", 1, 1},
	{"store.put_new_us", "store.put_new", "us", 1, 1},
	{"store.get_data_us", "store.get_data", "us", 1, 1},
	{"store.fetch_promote_us", "store.fetch_promote", "us", 1, 1},
	{"cache.get_us", "cache.get", "us", 1, 1},
	{"core.parse_us", "core.parse", "us", 1, 1},
	{"core.warm_us", "core.warm", "us", 1, 1},
	{"core.encode_us", "core.encode", "us", 1, 1},
	{"decode.c1_ms", "decode.c1", "ms", 1e-3, 1},
	{"decode.c2_ms", "decode.c2", "ms", 1e-3, 1},
	{"decode.c4_ms", "decode.c4", "ms", 1e-3, 1},
	{"controller.place_us", "controller.place", "us", 1, 1},
	{"controller.unload_us", "controller.unload", "us", 1, 1},
	{"controller.relocate_us", "controller.relocate", "us", 1, 1},
	{"sched.place_frag_us", "sched.place_frag", "us", 1, 1},
	{"repo.put_us", "repo.put", "us", 1, 1},
	{"repo.get_us", "repo.get", "us", 1, 1},
	{"ring.lookup_ns", "ring.lookup", "ns", 1e3, perSpan},
	{"gateway.put_fresh_ms", "gateway.put_fresh", "ms", 1e-3, 1},
	{"transport.frame_codec_us", "transport.frame_codec", "us", 1, 1},
	{"transport.call_rt_us", "transport.call_rt", "us", 1, 1},
	{"metrics.observe_ns", "metrics.observe", "ns", 1e3, perSpan},
	{"metrics.render_ms", "metrics.render", "ms", 1e-3, 1},
}

// layerMetrics folds the trace, the probe figures and the offline
// flow's set-up numbers into the per-layer metrics.
func layerMetrics(res *runResult, tr *tracer, pr *probeResult, ts *taskSet) {
	for _, lt := range layerTimings {
		d := tr.durations(lt.span)
		res.set(lt.metric, median(d)*lt.scale/lt.per, lt.unit, len(d))
	}
	// The gateway's price is a difference of two measured paths: the
	// same request through the gateway and straight to the owner.
	for _, op := range []string{"load", "get"} {
		via, direct := tr.durations("gateway."+op), tr.durations("node."+op)
		res.set("gateway."+op+"_hop_us", median(via)-median(direct), "us", len(via))
	}
	res.set("decode.alloc_b_per_op", pr.decodeAllocBytes, "B", 0)
	res.set("decode.allocs_per_op", pr.decodeAllocs, "count", 0)
	res.set("decode.workers_speedup", pr.workersSpeedup, "x", 0)
	res.set("flow.compile_ms", median(ts.compileMS), "ms", len(ts.compileMS))
	for _, c := range midClusters {
		var cs []*container
		for _, m := range ts.mid {
			if m.cluster == c {
				cs = append(cs, m)
			}
		}
		res.set(fmt.Sprintf("flow.ratio_c%d", c), compressRatio(cs), "ratio", len(cs))
	}
}

// scrape is one reading of a fleet's Prometheus counters: every
// sample of every daemon, summed by family name over label sets and
// daemons. The bench parses the text format itself — name, optional
// {labels}, value — to stay off internal/metrics' parser.
type scrape map[string]float64

func scrapeFleet(ctx context.Context, daemons []string) (scrape, error) {
	out := scrape{}
	for _, base := range daemons {
		w := newWire(base)
		body, err := w.expect(ctx, 200, "GET", "/metrics", nil)
		w.close()
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(bytes.NewReader(body))
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || line[0] == '#' {
				continue
			}
			cut := strings.LastIndexByte(line, ' ')
			if cut < 0 {
				return nil, fmt.Errorf("%s/metrics: malformed sample %q", base, line)
			}
			v, err := strconv.ParseFloat(line[cut+1:], 64)
			if err != nil {
				return nil, fmt.Errorf("%s/metrics: %q: %w", base, line, err)
			}
			name := line[:cut]
			if brace := strings.IndexByte(name, '{'); brace >= 0 {
				name = name[:brace]
			}
			out[name] += v
		}
	}
	return out, nil
}

// countMetrics turns the counter deltas of the traced window into
// the per-layer counts. A family a daemon does not export — the repo
// counters of a RAM-only node, everything gateway on a single node —
// reads as zero: that layer did no work.
func countMetrics(res *runResult, before, after scrape, ops int) {
	delta := func(family string) float64 { return after[family] - before[family] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	count := func(metric, family string) {
		res.set(metric, delta(family), "count", 0)
	}
	count("server.ops", "vbs_server_op_duration_seconds_count")
	count("decode.count", "vbs_decode_total")
	count("cache.evictions", "vbs_cache_evictions_total")
	count("store.promotions", "vbs_store_promotions_total")
	count("repo.writes", "vbs_repo_writes_total")
	count("repo.reads", "vbs_repo_reads_total")
	count("gateway.proxied", "vbs_gateway_proxied_total")
	count("gateway.replicated", "vbs_gateway_replicated_total")
	count("gateway.failovers", "vbs_gateway_failovers_total")
	count("gateway.retries", "vbs_gateway_retries_total")
	count("transport.reconnects", "vbs_transport_reconnects_total")
	hits, misses := delta("vbs_cache_hits_total"), delta("vbs_cache_misses_total")
	res.set("cache.hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	res.set("transport.frames_per_op", ratio(delta("vbs_transport_frames_sent_total"), float64(ops)), "1/op", ops)
	res.set("transport.bytes_per_op", ratio(delta("vbs_transport_bytes_sent_total"), float64(ops)), "B/op", ops)
	raw, flate := delta("vbs_transport_sent_raw_bytes_total"), delta("vbs_transport_sent_compressed_bytes_total")
	res.set("transport.raw_share", ratio(raw, raw+flate), "ratio", 0)
}
