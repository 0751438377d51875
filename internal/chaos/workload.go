package chaos

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"repro/internal/repo"
	"repro/internal/server"
)

// WorkloadStats is the client-side scoreboard of one chaos run.
type WorkloadStats struct {
	Ops    int `json:"ops"`
	Errors int `json:"errors"`
	// Stale counts unloads answered 404 — the task died with its node
	// (a killed daemon loses fabric state by design), which is not a
	// client-visible failure.
	Stale int `json:"stale"`
	// Backpressure counts loads refused 409 because no fabric had a
	// free slot. Small fleets saturate quickly under a load-heavy mix;
	// a full cluster answering 409 is behaving, not failing.
	Backpressure int `json:"backpressure"`
	// CorruptServes counts gateway reads whose bytes did not hash to
	// the requested digest. The invariant is zero, always.
	CorruptServes int     `json:"corrupt_serves"`
	ErrorRate     float64 `json:"error_rate"`
	AckedDigests  int     `json:"acked_digests"`
	UnloadedTasks int     `json:"unloaded_tasks"`
	LastError     string  `json:"last_error,omitempty"`
}

// Workload drives a continuous load/get/unload mix at the gateway
// while a recipe injects faults, and tracks what the cluster acked —
// the ground truth the invariant conditions check against.
type Workload struct {
	cl         *server.Client
	containers [][]byte
	digests    []string

	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	acked    map[string][]byte // digest -> container, acked by the gateway
	loaded   []int64           // task ids eligible for unload
	unloaded map[int64]bool    // task ids whose unload was acked
	stats    WorkloadStats
}

// NewWorkload wraps a gateway client and the task containers to mix.
func NewWorkload(cl *server.Client, containers [][]byte) *Workload {
	w := &Workload{
		cl:         cl,
		containers: containers,
		acked:      make(map[string][]byte),
		unloaded:   make(map[int64]bool),
	}
	for _, c := range containers {
		w.digests = append(w.digests, repo.DigestOf(c).String())
	}
	return w
}

// Start launches the worker goroutines. Stop (or ctx cancellation)
// ends them.
func (w *Workload) Start(ctx context.Context, workers int, seed int64) {
	ctx, w.cancel = context.WithCancel(ctx)
	for i := 0; i < workers; i++ {
		w.wg.Add(1)
		go func(i int) {
			defer w.wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(i)*7919))
			for ctx.Err() == nil {
				w.doOne(ctx, rng)
				select {
				case <-ctx.Done():
				case <-time.After(time.Duration(5+rng.Intn(10)) * time.Millisecond):
				}
			}
		}(i)
	}
}

// Stop ends the workers and waits for in-flight ops to finish.
func (w *Workload) Stop() {
	if w.cancel != nil {
		w.cancel()
	}
	w.wg.Wait()
}

// Stats snapshots the scoreboard.
func (w *Workload) Stats() WorkloadStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.stats
	s.AckedDigests = len(w.acked)
	s.UnloadedTasks = len(w.unloaded)
	if s.Ops > 0 {
		s.ErrorRate = float64(s.Errors) / float64(s.Ops)
	}
	return s
}

// Acked returns a copy of every digest the gateway acked, with the
// container bytes it acked them for.
func (w *Workload) Acked() map[string][]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string][]byte, len(w.acked))
	for d, c := range w.acked {
		out[d] = c
	}
	return out
}

// UnloadedTasks returns every task id whose unload was acked.
func (w *Workload) UnloadedTasks() []int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]int64, 0, len(w.unloaded))
	for id := range w.unloaded {
		out = append(out, id)
	}
	return out
}

// takeLoaded empties the unload pool into the caller's hands.
func (w *Workload) takeLoaded() []int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.loaded
	w.loaded = nil
	return out
}

// aborted reports whether an op's transport failure was caused by the
// workload's own shutdown: the run context is canceled and the error
// carries no server status. Such ops are discarded — the client hung
// up, the cluster did not fail — which is what lets a graceful
// recipe hold a zero error budget.
func aborted(ctx context.Context, err error) bool {
	return err != nil && ctx.Err() != nil && server.StatusCode(err) == 0
}

func (w *Workload) record(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stats.Ops++
	if err != nil {
		w.stats.Errors++
		w.stats.LastError = err.Error()
	}
}

func (w *Workload) doOne(ctx context.Context, rng *rand.Rand) {
	octx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	// Fixed 40:40:20 load:get:unload mix, degrading get/unload to
	// load while their prerequisites don't exist yet — and degrading
	// load to unload once many tasks are outstanding, so a small
	// fleet's fabrics don't sit saturated for the whole run.
	n := rng.Intn(100)
	w.mu.Lock()
	op := "load"
	switch {
	case n >= 80 && len(w.loaded) > 0:
		op = "unload"
	case n >= 40 && len(w.acked) > 0:
		op = "get"
	case len(w.loaded) >= 8:
		op = "unload"
	}
	var id int64
	var digest string
	switch op {
	case "unload":
		i := rng.Intn(len(w.loaded))
		id = w.loaded[i]
		w.loaded[i] = w.loaded[len(w.loaded)-1]
		w.loaded = w.loaded[:len(w.loaded)-1]
	case "get":
		i := rng.Intn(len(w.digests))
		// Prefer digests the gateway acked; fall back on any.
		for off := 0; off < len(w.digests); off++ {
			d := w.digests[(i+off)%len(w.digests)]
			if _, ok := w.acked[d]; ok {
				digest = d
				break
			}
		}
	}
	w.mu.Unlock()

	switch op {
	case "load":
		i := rng.Intn(len(w.containers))
		data := w.containers[i]
		res, err := w.cl.Load(octx, data, server.LoadRequest{})
		if aborted(ctx, err) {
			return
		}
		if err != nil && server.StatusCode(err) == 409 {
			w.mu.Lock()
			w.stats.Ops++
			w.stats.Backpressure++
			w.mu.Unlock()
			return
		}
		w.record(err)
		if err == nil {
			w.mu.Lock()
			w.acked[res.Digest] = data
			w.loaded = append(w.loaded, res.ID)
			w.mu.Unlock()
		}
	case "get":
		data, err := w.cl.GetVBS(octx, digest)
		if aborted(ctx, err) {
			return
		}
		if err == nil && repo.DigestOf(data).String() != digest {
			w.mu.Lock()
			w.stats.CorruptServes++
			w.mu.Unlock()
		}
		w.record(err)
	case "unload":
		err := w.cl.Unload(octx, id)
		switch {
		case aborted(ctx, err):
			// The task may survive the aborted call: put it back so a
			// later unload retires it.
			w.mu.Lock()
			w.loaded = append(w.loaded, id)
			w.mu.Unlock()
		case err == nil:
			w.record(nil)
			w.mu.Lock()
			w.unloaded[id] = true
			w.mu.Unlock()
		case server.StatusCode(err) == 404:
			// The task died with its node: stale, not an error. The
			// node's next boot mints ids under a new instance, so the
			// id must stay gone.
			w.mu.Lock()
			w.stats.Ops++
			w.stats.Stale++
			w.unloaded[id] = true
			w.mu.Unlock()
		default:
			w.record(err)
			// The task may still exist (transport failure mid-flight):
			// put it back so a later unload retires it.
			w.mu.Lock()
			w.loaded = append(w.loaded, id)
			w.mu.Unlock()
		}
	}
}
