// Package server implements vbsd, the run-time configuration
// management daemon: an HTTP/JSON front end over a pool of simulated
// fabrics, each driven by the Section II-C reconfiguration controller.
//
// The daemon turns the paper's single-caller runtime manager into a
// service. Clients POST Virtual Bit-Stream containers; the daemon
// stores them content-addressed (identical tasks deduplicate), decodes
// them once through the parallel de-virtualization workers, keeps
// decoded bitstreams in a size-bounded LRU so repeated loads skip the
// decode entirely, and serializes mutations per fabric so any number
// of concurrent clients can load, unload and relocate safely.
//
// Placement is delegated to the internal/sched policy layer: the
// configured policy ranks the fabric pool and picks slots through the
// controller's dry-run admission check, a load request may override
// the policy per call, and when no fabric admits a task the daemon
// compacts the most promising fabric and retries the placement once.
//
// # API
//
//	POST   /tasks                {"vbs": base64, "fabric"?, "x"?, "y"?, "policy"?}
//	GET    /tasks                list loaded tasks
//	DELETE /tasks/{id}           unload
//	POST   /tasks/{id}/relocate  {"x":, "y":}
//	POST   /fabrics/{i}/compact  defragment one fabric
//	GET    /fabrics              pool occupancy
//	GET    /vbs                  list stored blobs (both tiers)
//	GET    /vbs/{digest}         raw container download
//	DELETE /vbs/{digest}         drop a blob (409 while tasks reference it)
//	GET    /metrics              Prometheus counters, gauges and latency histograms
//	GET    /healthz              liveness probe + boot instance (see InstanceShift)
//
// With Options.DataDir set, the store gains a persistent
// content-addressed disk tier (internal/repo): admissions are written
// through, RAM eviction demotes instead of deleting, misses fall
// through to disk, and a boot recovery scan re-indexes surviving
// blobs so a restarted daemon serves them without re-upload.
package server

import (
	"crypto/rand"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/controller"
	"repro/internal/fabric"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/repo"
	"repro/internal/sched"
	"repro/internal/server/store"
	"repro/internal/transport"
)

// Options tunes a Server.
type Options struct {
	// CacheBits bounds the decoded-bitstream LRU by total raw bits
	// (0 = unbounded; a decoded task costs TaskW*TaskH*NRaw-ish bits).
	CacheBits int64
	// StoreBytes bounds the content-addressed VBS store by container
	// bytes, evicting least-recently-used entries (0 = unbounded).
	// Eviction only costs deduplication of future loads.
	StoreBytes int
	// DecodeWorkers sets the de-virtualization worker count per decode
	// (0 = GOMAXPROCS).
	DecodeWorkers int
	// Policy names the default placement policy (see sched.Names);
	// empty selects sched.Default (emptiest-fabric).
	Policy string
	// DataDir roots the persistent blob tier (internal/repo). Empty
	// keeps the store RAM-only: eviction deletes, restart loses
	// everything. With a data dir, admissions are written through to
	// disk, eviction demotes, misses fall through, and a boot recovery
	// scan re-indexes (and quarantines) existing blobs.
	DataDir string
	// EnableChaos registers the /chaos/faults endpoints, which arm the
	// disk tier's fault-injection seam over HTTP. For chaos testing
	// only — never enable on a production daemon.
	EnableChaos bool
	// TombstoneTTL is how long DELETE /vbs tombstones block automated
	// re-admission of a deleted digest (0 = repo.DefaultTombstoneTTL).
	// Only meaningful with a data dir: tombstones live in the disk
	// tier.
	TombstoneTTL time.Duration
}

// DefaultMaxBodyBytes bounds every JSON request body, at the daemon and
// the gateway alike: an oversized body is rejected with 413 before
// being buffered in full. Generous against any real VBS container
// (base64 inflates by 4/3), small against a memory DoS.
const DefaultMaxBodyBytes = 64 << 20

// Server manages a pool of fabrics behind the HTTP API. Create one
// with New and expose Handler on an http.Server.
type Server struct {
	ctrls   []*controller.Controller
	store   *store.Store
	cache   *store.Cache[*controller.Decoded]
	flight  *store.Flight[*controller.Decoded]
	workers int
	policy  sched.Policy
	chaos   bool
	tombTTL time.Duration
	start   time.Time

	instance int64 // this boot's random tag, the high bits of its task ids

	mu    sync.Mutex
	tasks map[int64]*task
	seq   int64 // last sequence number handed out
	// pending counts loads that have admitted a digest to the store
	// but not yet registered (or abandoned) their task, so
	// DELETE /vbs/{digest} cannot remove a blob out from under a load
	// in flight.
	pending map[store.Digest]int

	decodes      atomic.Uint64
	compactions  atomic.Uint64
	compactMoved atomic.Uint64
	retryLoads   atomic.Uint64

	jobs      *jobs.Table
	metrics   *metrics.Registry
	opLat     *metrics.HistogramVec
	decodeLat *metrics.Histogram
	transport *transport.Metrics
}

// InstanceShift splits a task id: id>>InstanceShift is the random
// boot instance of the daemon that minted it, so an id from an earlier
// boot answers 404; the low bits are the per-boot sequence number
// (from 1; past maxSeq loads are refused, never wrapped). A cluster
// gateway routes ids by instance and names fabrics the same way. Ids
// are positive 63-bit integers: opaque, never to be parsed as floats.
const InstanceShift = 32

const maxSeq = 1<<InstanceShift - 1

// InstanceOf returns the boot instance encoded in a task or fleet
// fabric id.
func InstanceOf(id int64) int64 { return id >> InstanceShift }

// newInstance draws a nonzero random 31-bit boot instance: shifted by
// InstanceShift it fills a positive int64.
func newInstance() int64 {
	var b [4]byte
	for {
		_, _ = rand.Read(b[:]) // never fails (crypto/rand, Go 1.24)
		if inst := int64(binary.LittleEndian.Uint32(b[:]) >> 1); inst != 0 {
			return inst
		}
	}
}

// task maps a server task id to its fabric-level identity.
type task struct {
	id     int64
	fabric int
	fid    fabric.TaskID
	digest store.Digest
}

// New returns a daemon over the given fabric pool. At least one
// controller is required; all fabrics may differ in size but share
// the pool.
func New(ctrls []*controller.Controller, opts Options) (*Server, error) {
	if len(ctrls) == 0 {
		return nil, fmt.Errorf("server: empty fabric pool")
	}
	pol, err := sched.New(opts.Policy)
	if err != nil {
		return nil, err
	}
	var disk *repo.Repo
	if opts.DataDir != "" {
		if disk, err = repo.Open(opts.DataDir, repo.Options{}); err != nil {
			return nil, err
		}
	}
	s := &Server{
		ctrls: ctrls,
		store: store.NewTiered(opts.StoreBytes, disk),
		cache: store.NewCache[*controller.Decoded](opts.CacheBits,
			func(d *controller.Decoded) int64 { return int64(d.SizeBits()) }),
		flight:   store.NewFlight[*controller.Decoded](),
		workers:  opts.DecodeWorkers,
		policy:   pol,
		chaos:    opts.EnableChaos,
		tombTTL:  opts.TombstoneTTL,
		start:    time.Now(),
		instance: newInstance(),
		tasks:    make(map[int64]*task),
		pending:  make(map[store.Digest]int),
		jobs:     jobs.NewTable(),
	}
	s.defineJobs()
	s.metrics = newServerMetrics(s)
	return s, nil
}

// Handler returns the daemon's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /tasks", s.handleLoad)
	mux.HandleFunc("POST /tasks:batch", s.handleBatch)
	mux.HandleFunc("GET /tasks", s.handleListTasks)
	mux.HandleFunc("DELETE /tasks/{id}", s.handleUnload)
	mux.HandleFunc("POST /tasks/{id}/relocate", s.handleRelocate)
	mux.HandleFunc("POST /fabrics/{i}/compact", s.handleCompact)
	mux.HandleFunc("GET /fabrics", s.handleFabrics)
	mux.HandleFunc("POST /vbs", s.handlePutVBS)
	mux.HandleFunc("GET /vbs", s.handleListVBS)
	mux.HandleFunc("GET /vbs/{digest}", s.handleGetVBS)
	mux.HandleFunc("DELETE /vbs/{digest}", s.handleDeleteVBS)
	mux.HandleFunc("GET /tombstones", s.handleTombstones)
	mux.HandleFunc("POST /jobs", s.handleStartJob)
	mux.HandleFunc("GET /jobs", s.handleListJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleGetJob)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleAbortJob)
	mux.Handle("GET /metrics", s.metrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Instance: s.instance})
	})
	mux.HandleFunc("GET "+transport.DefaultPath, s.handleStream)
	if s.chaos {
		mux.HandleFunc("POST /chaos/faults", s.handleSetFaults)
		mux.HandleFunc("GET /chaos/faults", s.handleGetFaults)
	}
	return mux
}

// handleSetFaults arms (or clears, with all-false) the disk tier's
// fault-injection seam. Registered only with Options.EnableChaos.
func (s *Server) handleSetFaults(w http.ResponseWriter, r *http.Request) {
	disk := s.store.Disk()
	if disk == nil {
		writeError(w, http.StatusConflict, "no disk tier: faults need -data-dir")
		return
	}
	var f ChaosFaults
	if !s.decodeBody(w, r, &f) {
		return
	}
	disk.SetFaults(repo.Faults(f))
	writeJSON(w, http.StatusOK, f)
}

func (s *Server) handleGetFaults(w http.ResponseWriter, r *http.Request) {
	disk := s.store.Disk()
	if disk == nil {
		writeError(w, http.StatusConflict, "no disk tier: faults need -data-dir")
		return
	}
	writeJSON(w, http.StatusOK, ChaosFaults(disk.Faults()))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeBody reads a JSON request body under the server's size bound.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	return DecodeJSONBody(w, r, DefaultMaxBodyBytes, v)
}

// DecodeJSONBody reads a JSON request body bounded by maxBytes,
// replying 413 on overflow and 400 on malformed JSON. It returns false
// when a reply was already written. Shared by the daemon and the
// cluster gateway so both surfaces reject oversized bodies
// identically.
func DecodeJSONBody(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes)).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// putError maps a store admission failure to an HTTP status and
// message, shared by the JSON handlers and the stream/batch paths so
// every transport speaks the same error vocabulary: a disk-tier I/O
// failure is the server's fault (500, and a cluster gateway fails the
// load over to another node), a tombstone refusal is 410 Gone (the
// digest was deleted; automated copiers must not resurrect it), and
// anything else is a malformed container (400).
func putError(err error) (int, string) {
	if errors.Is(err, repo.ErrTombstoned) {
		return http.StatusGone, fmt.Sprintf("vbs deleted: %v", err)
	}
	if errors.Is(err, store.ErrDisk) {
		return http.StatusInternalServerError, fmt.Sprintf("cannot persist vbs: %v", err)
	}
	return http.StatusBadRequest, fmt.Sprintf("bad vbs container: %v", err)
}

// observe records one operation's latency on the op histogram —
// deferred at the top of each hot handler so errors are measured too.
func (s *Server) observe(op string, begin time.Time) {
	s.opLat.With(op).Observe(time.Since(begin).Seconds())
}

// getOrDecode returns the decoded form of a stored VBS, consulting the
// LRU first and collapsing concurrent decodes of the same digest.
func (s *Server) getOrDecode(ent *store.Entry) (dec *controller.Decoded, cached bool, err error) {
	if d, ok := s.cache.Get(ent.Digest); ok {
		return d, true, nil
	}
	d, err, shared := s.flight.Do(ent.Digest, func() (*controller.Decoded, error) {
		begin := time.Now()
		d, err := controller.DecodeVBS(ent.VBS, s.workers)
		if err != nil {
			return nil, err
		}
		s.decodeLat.Observe(time.Since(begin).Seconds())
		s.decodes.Add(1)
		s.cache.Put(ent.Digest, d)
		return d, nil
	})
	if err != nil {
		return nil, false, err
	}
	// A piggybacked caller shared another request's decode: from this
	// request's point of view that is a cache hit in all but name.
	return d, shared, nil
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	begin := time.Now()
	defer s.observe("load", begin)
	var req LoadRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	data, err := base64.StdEncoding.DecodeString(req.VBS)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad vbs base64: %v", err)
		return
	}
	resp, status, lerr := s.loadOne(begin, data, req)
	if lerr != nil {
		writeError(w, status, "%v", lerr)
		return
	}
	writeJSON(w, http.StatusCreated, resp)
}

// loadOne runs one load end to end — admission, decode, placement,
// registration — and returns the response or an HTTP status plus
// error. begin is when the request entered the daemon so LoadMS spans
// the whole service time; batch ops pass their own per-op clock.
func (s *Server) loadOne(begin time.Time, data []byte, req LoadRequest) (LoadResponse, int, error) {
	var zero LoadResponse
	if (req.X == nil) != (req.Y == nil) {
		return zero, http.StatusBadRequest, errors.New("x and y must be given together")
	}
	// From before admission until the task is registered (or this
	// load gives up), hold a pending reference so a concurrent
	// DELETE /vbs cannot drop the blob in the gap. The ref must be
	// taken before Put: taken after, a delete sneaking between
	// admission and the increment would see zero references, remove
	// the blob, and leave this load registering a task whose digest
	// is no longer stored.
	digest := store.DigestOf(data)
	s.mu.Lock()
	if s.seq == maxSeq {
		s.mu.Unlock()
		return zero, http.StatusServiceUnavailable, errors.New("task ids of this boot exhausted: restart the daemon")
	}
	// The id is reserved up front, so a failed load leaves a gap in
	// the sequence: ids are names, not counters.
	s.seq++
	id := s.instance<<InstanceShift | s.seq
	s.pending[digest]++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		if s.pending[digest]--; s.pending[digest] <= 0 {
			delete(s.pending, digest)
		}
		s.mu.Unlock()
	}()
	// A load is explicit user intent to run these bytes: it overrides
	// any delete tombstone left by an earlier DELETE /vbs.
	if err := s.store.ClearTombstone(digest); err != nil {
		return zero, http.StatusInternalServerError, fmt.Errorf("cannot clear tombstone: %w", err)
	}
	ent, _, err := s.store.Put(data)
	if err != nil {
		status, msg := putError(err)
		return zero, status, errors.New(msg)
	}
	dec, cached, err := s.getOrDecode(ent)
	if err != nil {
		return zero, http.StatusUnprocessableEntity, fmt.Errorf("decode failed: %w", err)
	}

	pol := s.policy
	if req.Policy != "" {
		if pol, err = sched.New(req.Policy); err != nil {
			return zero, http.StatusBadRequest, err
		}
	}
	sreq := sched.Request{W: ent.VBS.TaskW, H: ent.VBS.TaskH}
	candidates, err := s.candidateFabrics(req.Fabric, pol, sreq)
	if err != nil {
		return zero, http.StatusBadRequest, err
	}
	// noSlot collects, in policy-preference order, the fabrics whose
	// failure was lack of a conflict-free slot — the only failure mode
	// compaction can fix. Structural refusals (architecture mismatch)
	// would fail identically on a defragmented fabric and must neither
	// trigger a retry nor steer it at the wrong fabric.
	var noSlot []int
	tryPlace := func() (*controller.Task, int, error) {
		noSlot = noSlot[:0] // each pass reports its own failures
		var lastErr error
		for _, fi := range candidates {
			c := s.ctrls[fi]
			var t *controller.Task
			var err error
			if req.X != nil {
				t, err = c.LoadDecodedAt(dec, *req.X, *req.Y)
			} else {
				t, err = c.LoadDecodedPolicy(dec, pol)
			}
			if err == nil {
				return t, fi, nil
			}
			if errors.Is(err, controller.ErrNoSlot) {
				noSlot = append(noSlot, fi)
			}
			lastErr = err
		}
		return nil, 0, lastErr
	}
	placed, onIndex, lastErr := tryPlace()
	compacted := false
	if placed == nil && req.X == nil {
		// Auto-compaction retry: defragment the most promising fabric
		// (first capacity-failed fabric in policy order with enough
		// total free space) and give the placement one more chance.
		// Pinned positions are exempt — compaction could relocate other
		// tasks into the requested slot.
		if fi, ok := s.compactTarget(noSlot, sreq); ok {
			moved, cerr := s.ctrls[fi].Compact()
			s.compactions.Add(1)
			s.compactMoved.Add(uint64(moved))
			if cerr != nil {
				return zero, http.StatusInternalServerError, fmt.Errorf("compaction failed: %w", cerr)
			}
			if placed, onIndex, lastErr = tryPlace(); placed != nil {
				compacted = true
				s.retryLoads.Add(1)
			}
		}
	}
	if placed == nil {
		return zero, http.StatusConflict, fmt.Errorf("no fabric accepted the task: %w", lastErr)
	}

	s.mu.Lock()
	s.tasks[id] = &task{id: id, fabric: onIndex, fid: placed.ID, digest: ent.Digest}
	s.mu.Unlock()

	elapsed := time.Since(begin)
	return LoadResponse{
		ID:               id,
		Fabric:           onIndex,
		X:                placed.X,
		Y:                placed.Y,
		Digest:           ent.Digest.String(),
		TaskW:            ent.VBS.TaskW,
		TaskH:            ent.VBS.TaskH,
		Cached:           cached,
		CompressionRatio: ent.Ratio,
		LoadMS:           float64(elapsed) / float64(time.Millisecond),
		Compacted:        compacted,
	}, 0, nil
}

// candidateFabrics returns fabric indices in placement-preference
// order: the pinned fabric alone, or the pool ranked by the policy.
func (s *Server) candidateFabrics(pinned *int, pol sched.Policy, req sched.Request) ([]int, error) {
	if pinned != nil {
		if *pinned < 0 || *pinned >= len(s.ctrls) {
			return nil, fmt.Errorf("fabric %d out of range [0,%d)", *pinned, len(s.ctrls))
		}
		return []int{*pinned}, nil
	}
	stats := make([]sched.FabricStat, len(s.ctrls))
	for i, c := range s.ctrls {
		g := c.Fabric().Grid()
		stats[i] = sched.FabricStat{
			Index:      i,
			Width:      g.Width,
			Height:     g.Height,
			FreeMacros: c.Stats().FreeMacros,
		}
	}
	return pol.RankFabrics(stats, req), nil
}

// compactTarget picks the fabric to defragment for a failed placement:
// the first capacity-failed candidate (in policy-preference order)
// whose total free space could hold the task, so compaction at least
// has a chance of coalescing a large-enough region.
func (s *Server) compactTarget(noSlot []int, req sched.Request) (int, bool) {
	for _, fi := range noSlot {
		g := s.ctrls[fi].Fabric().Grid()
		if g.Width < req.W || g.Height < req.H {
			continue
		}
		if s.ctrls[fi].Stats().FreeMacros >= req.Area() {
			return fi, true
		}
	}
	return 0, false
}

// taskFromPath resolves {id} or replies 404/400.
func (s *Server) taskFromPath(w http.ResponseWriter, r *http.Request) (*task, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad task id %q", r.PathValue("id"))
		return nil, false
	}
	s.mu.Lock()
	t, ok := s.tasks[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "task %d not loaded", id)
		return nil, false
	}
	return t, true
}

func (s *Server) handleUnload(w http.ResponseWriter, r *http.Request) {
	defer s.observe("unload", time.Now())
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad task id %q", r.PathValue("id"))
		return
	}
	if status, uerr := s.unloadTask(id); uerr != nil {
		writeError(w, status, "%v", uerr)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// unloadTask removes one task, returning a non-zero HTTP status plus
// error on failure. Lookup and delete run under one lock so two
// concurrent unloads of the same id cannot both reach the controller.
func (s *Server) unloadTask(id int64) (int, error) {
	s.mu.Lock()
	t, live := s.tasks[id]
	if !live {
		s.mu.Unlock()
		return http.StatusNotFound, fmt.Errorf("task %d not loaded", id)
	}
	delete(s.tasks, id)
	s.mu.Unlock()
	if err := s.ctrls[t.fabric].Unload(t.fid); err != nil {
		// Resurrect the API entry only while the controller still holds
		// the task: then its fabric region is still occupied and must
		// not become invisible (and unreclaimable) over HTTP. If the
		// controller does not know the task (the fid is already gone),
		// the region is free and the entry must stay deleted, or every
		// future DELETE would 500 on an undeletable phantom.
		if _, held := s.ctrls[t.fabric].Task(t.fid); held {
			s.mu.Lock()
			s.tasks[t.id] = t
			s.mu.Unlock()
		}
		return http.StatusInternalServerError, err
	}
	return 0, nil
}

func (s *Server) handleRelocate(w http.ResponseWriter, r *http.Request) {
	defer s.observe("relocate", time.Now())
	t, ok := s.taskFromPath(w, r)
	if !ok {
		return
	}
	var req RelocateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// Both coordinates are required: a partial or empty body must not
	// silently relocate the task to (0,0).
	if req.X == nil || req.Y == nil {
		writeError(w, http.StatusBadRequest, "x and y are required")
		return
	}
	if err := s.ctrls[t.fabric].Relocate(t.fid, *req.X, *req.Y); err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	ct, _ := s.ctrls[t.fabric].Task(t.fid)
	info := TaskInfo{ID: t.id, Fabric: t.fabric, Digest: t.digest.String()}
	if ct != nil {
		info.X, info.Y = ct.X, ct.Y
		info.TaskW, info.TaskH = ct.VBS.TaskW, ct.VBS.TaskH
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleListTasks(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ts := make([]*task, 0, len(s.tasks))
	for _, t := range s.tasks {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	sort.Slice(ts, func(a, b int) bool { return ts[a].id < ts[b].id })
	out := make([]TaskInfo, 0, len(ts))
	for _, t := range ts {
		info := TaskInfo{ID: t.id, Fabric: t.fabric, Digest: t.digest.String()}
		if ct, ok := s.ctrls[t.fabric].Task(t.fid); ok {
			info.X, info.Y = ct.X, ct.Y
			info.TaskW, info.TaskH = ct.VBS.TaskW, ct.VBS.TaskH
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) fabricInfos() []FabricInfo {
	out := make([]FabricInfo, len(s.ctrls))
	for i, c := range s.ctrls {
		g := c.Fabric().Grid()
		p := c.Fabric().Params()
		out[i] = FabricInfo{
			Index:  i,
			Width:  g.Width,
			Height: g.Height,
			W:      p.W,
			K:      p.K,
			Stats:  c.Stats(),
		}
	}
	return out
}

func (s *Server) handleFabrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.fabricInfos())
}

// handleCompact defragments one fabric on demand — the explicit form
// of the auto-compaction retry.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	i, err := strconv.Atoi(r.PathValue("i"))
	if err != nil || i < 0 || i >= len(s.ctrls) {
		writeError(w, http.StatusNotFound, "fabric %q not in pool", r.PathValue("i"))
		return
	}
	moved, cerr := s.ctrls[i].Compact()
	s.compactions.Add(1)
	s.compactMoved.Add(uint64(moved))
	if cerr != nil {
		// A propagated restore failure means a task lost its fabric
		// region mid-compaction: surface it loudly.
		writeError(w, http.StatusInternalServerError, "%v", cerr)
		return
	}
	writeJSON(w, http.StatusOK, CompactResponse{Fabric: i, Moved: moved})
}

// digestRefs counts live tasks per referenced digest.
func (s *Server) digestRefs() map[store.Digest]int {
	refs := make(map[store.Digest]int)
	s.mu.Lock()
	for _, t := range s.tasks {
		refs[t.digest]++
	}
	s.mu.Unlock()
	return refs
}

// handlePutVBS admits a container into the store without placing a
// task — the replication path of the cluster gateway, and a cheap way
// to pre-seed a daemon. The blob lands in both tiers exactly like a
// load-time admission (write-through with a data dir).
func (s *Server) handlePutVBS(w http.ResponseWriter, r *http.Request) {
	defer s.observe("vbs_put", time.Now())
	var req PutVBSRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	data, err := base64.StdEncoding.DecodeString(req.VBS)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad vbs base64: %v", err)
		return
	}
	resp, status, perr := s.putBlob(data, req.Force)
	if perr != nil {
		writeError(w, status, "%v", perr)
		return
	}
	writeJSON(w, http.StatusCreated, resp)
}

// putBlob admits a container without placing a task — the node half of
// replication, shared by POST /vbs, the stream ObjPut handlers and
// batch ops.
func (s *Server) putBlob(data []byte, force bool) (PutVBSResponse, int, error) {
	var zero PutVBSResponse
	if force {
		// Explicit user intent ("store this again") lifts a delete
		// tombstone; automated copiers (read-repair, rebalance) omit
		// Force and get refused with 410 instead.
		if err := s.store.ClearTombstone(store.DigestOf(data)); err != nil {
			return zero, http.StatusInternalServerError, fmt.Errorf("cannot clear tombstone: %w", err)
		}
	}
	ent, existed, err := s.store.Put(data)
	if err != nil {
		status, msg := putError(err)
		return zero, status, errors.New(msg)
	}
	return PutVBSResponse{
		Digest:  ent.Digest.String(),
		Bytes:   ent.SizeBytes(),
		Existed: existed,
	}, 0, nil
}

// handleListVBS lists every stored blob across both tiers.
func (s *Server) handleListVBS(w http.ResponseWriter, r *http.Request) {
	refs := s.digestRefs()
	blobs := s.store.List()
	out := make([]VBSInfo, 0, len(blobs))
	for _, b := range blobs {
		out = append(out, VBSInfo{
			Digest: b.Digest.String(),
			Bytes:  b.Bytes,
			RAM:    b.RAM,
			Disk:   b.Disk,
			Tasks:  refs[b.Digest],
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// digestFromPath resolves {digest} or replies 400.
func digestFromPath(w http.ResponseWriter, r *http.Request) (store.Digest, bool) {
	d, err := store.ParseDigest(r.PathValue("digest"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return d, false
	}
	return d, true
}

// handleGetVBS serves a stored container verbatim — the raw-blob
// download path, straight from whichever tier holds the digest.
func (s *Server) handleGetVBS(w http.ResponseWriter, r *http.Request) {
	defer s.observe("vbs_get", time.Now())
	d, ok := digestFromPath(w, r)
	if !ok {
		return
	}
	data, status, gerr := s.getVBSData(d)
	if gerr != nil {
		writeError(w, status, "%v", gerr)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

// getVBSData fetches a stored container, returning a non-zero HTTP
// status plus error on failure.
func (s *Server) getVBSData(d store.Digest) ([]byte, int, error) {
	data, err := s.store.GetData(d)
	switch {
	case errors.Is(err, store.ErrNotFound):
		if s.store.Tombstoned(d) {
			// Deleted, and the delete is still being remembered: 410
			// tells gateways "stay dead" where 404 would mean "repair
			// me from another replica".
			return nil, http.StatusGone, fmt.Errorf("vbs %s deleted", d.Short())
		}
		return nil, http.StatusNotFound, fmt.Errorf("vbs %s not stored", d.Short())
	case err != nil:
		// Disk-tier verification failure: the blob was quarantined and
		// must not be served.
		return nil, http.StatusInternalServerError, err
	}
	return data, 0, nil
}

// handleDeleteVBS removes a blob from both tiers, refusing while any
// live task still references it (its decode came from these bytes;
// losing them would orphan re-decode and audit paths). The reference
// check and the delete run under one lock so a load registering
// between them cannot be orphaned; loads that have admitted the
// digest but not yet registered count via s.pending.
//
// By default the delete also records a tombstone — before removing
// the bytes, so no repair can slip a copy back in between the two —
// and it does so even when the blob is absent: a gateway fans deletes
// out to every node precisely so that an in-flight rebalance copy
// landing afterwards is refused. ?trim=1 skips the tombstone: a
// physical trim of a surplus replica (the rebalancer's move
// primitive), not a logical delete of the digest.
func (s *Server) handleDeleteVBS(w http.ResponseWriter, r *http.Request) {
	defer s.observe("vbs_delete", time.Now())
	d, ok := digestFromPath(w, r)
	if !ok {
		return
	}
	trim := r.URL.Query().Get("trim") != ""
	s.mu.Lock()
	refs := s.pending[d]
	for _, t := range s.tasks {
		if t.digest == d {
			refs++
		}
	}
	if refs > 0 {
		s.mu.Unlock()
		writeError(w, http.StatusConflict, "vbs %s referenced by %d live task(s)", d.Short(), refs)
		return
	}
	// Deleting under s.mu stalls task registration for the duration of
	// one disk unlink — acceptable for a rare admin operation, and the
	// price of making "referenced" and "deleted" mutually exclusive.
	var err error
	if !trim {
		err = s.store.Tombstone(d, s.tombTTL)
	}
	if err == nil {
		err = s.store.Delete(d)
	}
	s.mu.Unlock()
	switch {
	case errors.Is(err, store.ErrNotFound):
		writeError(w, http.StatusNotFound, "vbs %s not stored", d.Short())
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleTombstones lists the node's live delete tombstones — the
// rebalancer reads them to propagate deletes fleet-wide.
func (s *Server) handleTombstones(w http.ResponseWriter, r *http.Request) {
	ts := s.store.Tombstones()
	out := make([]TombstoneInfo, 0, len(ts))
	for _, t := range ts {
		out = append(out, TombstoneInfo{Digest: t.Digest.String(), Expires: t.Expires})
	}
	writeJSON(w, http.StatusOK, out)
}

// Flush writes any RAM-only blobs through to the disk tier — called
// by vbsd on graceful shutdown (a safety net over the write-through
// admission path; usually a no-op).
func (s *Server) Flush() error { return s.store.Flush() }

// Instance returns this boot's random instance tag, the high bits of
// every task id the daemon mints.
func (s *Server) Instance() int64 { return s.instance }

// Policy names the daemon's default placement policy.
func (s *Server) Policy() string { return s.policy.Name() }

// RecoveryReport returns the disk tier's boot recovery scan (zero
// without a data dir).
func (s *Server) RecoveryReport() repo.ScanReport {
	if disk := s.store.Disk(); disk != nil {
		return disk.ScanReport()
	}
	return repo.ScanReport{}
}
