// Command vbsd is the run-time configuration management daemon: it
// owns a pool of simulated fabrics and serves Virtual Bit-Stream
// operations over an HTTP/JSON API — load (with content-addressed
// storage, one-time parallel de-virtualization and an LRU cache of
// decoded bitstreams), unload, on-the-fly relocation, and occupancy /
// latency / compression statistics.
//
//	vbsd -addr :8931 -fabrics 2 -size 32x32 -w 20 -k 6 -cache-mbits 64 -policy emptiest -data-dir /var/lib/vbsd
//
// Placement runs through the internal/sched policy engine (first-fit,
// best-fit, emptiest) with dry-run admission; when no fabric admits a
// task the daemon compacts the most promising fabric and retries once.
//
// With -data-dir the daemon persists every admitted VBS to a
// crash-safe content-addressed repository: RAM eviction demotes to
// disk instead of deleting, misses fall back to disk, a boot recovery
// scan re-indexes surviving blobs (quarantining corrupt ones), and
// -warm N pre-decodes stored blobs into the cache at startup.
//
// Background maintenance (tombstone sweeps, repository scrubs, cache
// warming) runs through the jobs engine: POST /jobs starts one,
// GET /jobs lists them, DELETE /jobs/{id} aborts; GET /metrics
// exposes Prometheus text-format counters, gauges and latency
// histograms, job progress included.
//
// Endpoints: POST /tasks, GET /tasks, DELETE /tasks/{id},
// POST /tasks/{id}/relocate, POST /fabrics/{i}/compact, GET /fabrics,
// GET /vbs, GET /vbs/{digest}, DELETE /vbs/{digest}, GET /healthz,
// POST /jobs, GET /jobs, GET /jobs/{id}, DELETE /jobs/{id},
// GET /metrics, and GET /stream — the frame-stream upgrade a vbsgw
// gateway rides for replication and batch fan-out. Every counter is
// on GET /metrics; per-fabric occupancy and load, unload and
// relocation totals are on GET /fabrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/arch"
	"repro/internal/controller"
	"repro/internal/fabric"
	"repro/internal/jobs"
	"repro/internal/sched"
	"repro/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8931", "listen address")
		nFabrics  = flag.Int("fabrics", 2, "number of fabrics in the pool")
		size      = flag.String("size", "32x32", "fabric dimensions in macros, WxH")
		w         = flag.Int("w", 20, "channel width of every fabric")
		k         = flag.Int("k", 6, "LUT size of every fabric")
		workers   = flag.Int("workers", 0, "de-virtualization workers per decode (0 = GOMAXPROCS)")
		cacheMbit = flag.Int64("cache-mbits", 64, "decoded-bitstream cache size in megabits (0 = unbounded)")
		storeMB   = flag.Int("store-mbytes", 256, "content-addressed VBS store size in megabytes (0 = unbounded)")
		policy    = flag.String("policy", "", "placement policy: "+strings.Join(sched.Names(), ", ")+" (default emptiest)")
		dataDir   = flag.String("data-dir", "", "persistent VBS repository directory (empty = RAM-only store)")
		warm      = flag.Int("warm", 0, "with -data-dir, pre-decode up to N stored blobs into the cache at boot (-1 = all, 0 = off)")
		chaos     = flag.Bool("chaos", false, "expose /chaos/faults fault-injection endpoints (testing only)")
		tombTTL   = flag.Duration("tombstone-ttl", 0, "with -data-dir, how long DELETE /vbs tombstones block re-replication (0 = 24h default)")
	)
	flag.Parse()

	var gw, gh int
	if _, err := fmt.Sscanf(*size, "%dx%d", &gw, &gh); err != nil {
		log.Fatalf("vbsd: bad -size %q: %v", *size, err)
	}
	if *nFabrics < 1 {
		log.Fatalf("vbsd: -fabrics must be >= 1")
	}
	p := arch.Params{W: *w, K: *k}
	ctrls := make([]*controller.Controller, *nFabrics)
	for i := range ctrls {
		f, err := fabric.New(p, arch.Grid{Width: gw, Height: gh})
		if err != nil {
			log.Fatalf("vbsd: fabric %d: %v", i, err)
		}
		ctrls[i] = controller.New(f, *workers)
	}

	srv, err := server.New(ctrls, server.Options{
		CacheBits:     *cacheMbit * 1_000_000,
		StoreBytes:    *storeMB * 1_000_000,
		DecodeWorkers: *workers,
		Policy:        *policy,
		DataDir:       *dataDir,
		EnableChaos:   *chaos,
		TombstoneTTL:  *tombTTL,
	})
	if err != nil {
		log.Fatalf("vbsd: %v", err)
	}
	if *chaos {
		log.Printf("vbsd: WARNING: /chaos/faults fault injection enabled")
	}
	if *dataDir != "" {
		rep := srv.RecoveryReport()
		log.Printf("vbsd: repo %s: recovered %d blob(s) (%d bytes), quarantined %d, removed %d temp file(s)",
			*dataDir, rep.Recovered, rep.Bytes, rep.Quarantined, rep.TempRemoved)
		if *warm != 0 {
			// Warm-up runs as a background job: the daemon serves its
			// first requests immediately, the job is visible in GET /jobs
			// and abortable with DELETE /jobs/{id}.
			args := map[string]string{}
			if *warm > 0 {
				args["max"] = strconv.Itoa(*warm)
			}
			if j, err := srv.Jobs().Start("warm", args); err != nil {
				log.Printf("vbsd: cache warm-up: %v", err)
			} else {
				go func() {
					s, _ := j.Wait(context.Background())
					if s.Status == jobs.StatusDone {
						log.Printf("vbsd: pre-decoded %d blob(s) into the cache", s.Progress["warmed"])
					} else {
						log.Printf("vbsd: cache warm-up %s after %d blob(s): %s",
							s.Status, s.Progress["warmed"], s.Error)
					}
				}()
			}
		}
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(shutdownCtx)
	}()
	// Housekeeping: hourly, reclaim expired delete tombstones (as an
	// observable job — expiry is enforced at read time either way; the
	// sweep only keeps the tombstone directory from accumulating
	// debris) and drop day-old terminal job records from the table.
	go func() {
		tick := time.NewTicker(time.Hour)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				if j, err := srv.Jobs().Start("tombstone-sweep", nil); err == nil {
					if s, werr := j.Wait(ctx); werr == nil && s.Progress["swept"] > 0 {
						log.Printf("vbsd: swept %d expired tombstone(s)", s.Progress["swept"])
					}
				}
				srv.Jobs().Sweep(24 * time.Hour)
			}
		}
	}()

	log.Printf("vbsd: serving %d %dx%d fabric(s) (W=%d, K=%d, policy %s) on %s, instance %d",
		*nFabrics, gw, gh, *w, *k, srv.Policy(), *addr, srv.Instance())
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatalf("vbsd: %v", err)
	}
	// Graceful shutdown: abort running jobs (bounded wait), then make
	// sure every RAM-resident blob reached the disk tier (normally a
	// no-op — admissions write through).
	jctx, jcancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := srv.Jobs().Shutdown(jctx); err != nil {
		log.Printf("vbsd: job shutdown: %v", err)
	}
	jcancel()
	if err := srv.Flush(); err != nil {
		log.Printf("vbsd: shutdown flush: %v", err)
	}
	log.Printf("vbsd: shut down")
}
