// Package jobs is the xaction-style background-activity engine: every
// long-running operation — rebalance, tombstone sweep, repo scrub,
// cache warming, reconciliation — is a Job with an ID, a kind, a
// start time, named progress counters, an abort channel and a
// terminal status, registered in a per-process Table.
//
// The HTTP surface (POST /jobs, GET /jobs, DELETE /jobs/{id} on both
// vbsd and vbsgw) is a thin veneer over the Table; the gateway fans
// fleet-wide kinds out to every node and scatter-gathers their
// progress into one gateway job.
//
// Lifecycle:
//
//	POST /jobs ── Start ──▶ running ──┬─ runner returns nil ──▶ done
//	                                  ├─ runner returns err ──▶ failed
//	      DELETE /jobs/{id} ── Abort ─┴──── ctx cancelled ────▶ aborted
//
// Terminal snapshots stay in the table (for GET /jobs) until Sweep
// drops the old ones.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Status is a job's lifecycle state.
type Status string

const (
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
	StatusAborted Status = "aborted"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool { return s != StatusRunning }

// Snapshot is the wire view of a job — what GET /jobs returns.
type Snapshot struct {
	ID   int64  `json:"id"`
	Kind string `json:"kind"`
	// Node names the owning process in fleet-merged listings (the
	// gateway fills it in; a node's own listing leaves it empty).
	Node     string            `json:"node,omitempty"`
	Args     map[string]string `json:"args,omitempty"`
	Status   Status            `json:"status"`
	Error    string            `json:"error,omitempty"`
	Started  time.Time         `json:"started"`
	Finished time.Time         `json:"finished,omitzero"`
	// Progress holds the job's named cumulative counters.
	Progress map[string]int64 `json:"progress,omitempty"`
}

// Runner executes a job. It must honor ctx (the abort channel): a
// cancelled ctx means DELETE /jobs/{id} or process shutdown, and the
// runner should return promptly (returning ctx.Err() marks the job
// aborted rather than failed).
type Runner func(ctx context.Context, j *Job) error

// Spec declares a job kind.
type Spec struct {
	Kind string
	// Exclusive kinds refuse to start while an instance is running —
	// two concurrent rebalances would duplicate every copy.
	Exclusive bool
	Run       Runner
}

// Job is one running or finished activity.
type Job struct {
	id    int64
	kind  string
	args  map[string]string
	start time.Time

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	progress map[string]int64
	status   Status
	errMsg   string
	finished time.Time
	aborted  bool
}

// ID returns the job's table-assigned id.
func (j *Job) ID() int64 { return j.id }

// Arg returns a start argument ("" when absent).
func (j *Job) Arg(name string) string { return j.args[name] }

// Done is closed when the job reaches a terminal status.
func (j *Job) Done() <-chan struct{} { return j.done }

// Add increments a named progress counter.
func (j *Job) Add(counter string, delta int64) {
	j.mu.Lock()
	j.progress[counter] += delta
	j.mu.Unlock()
}

// Set stores a named progress counter.
func (j *Job) Set(counter string, v int64) {
	j.mu.Lock()
	j.progress[counter] = v
	j.mu.Unlock()
}

// Snapshot returns the job's current wire view.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := Snapshot{
		ID:       j.id,
		Kind:     j.kind,
		Status:   j.status,
		Error:    j.errMsg,
		Started:  j.start,
		Finished: j.finished,
	}
	if len(j.args) > 0 {
		out.Args = make(map[string]string, len(j.args))
		for k, v := range j.args {
			out.Args[k] = v
		}
	}
	if len(j.progress) > 0 {
		out.Progress = make(map[string]int64, len(j.progress))
		for k, v := range j.progress {
			out.Progress[k] = v
		}
	}
	return out
}

// Wait blocks until the job finishes or ctx expires, returning the
// terminal snapshot.
func (j *Job) Wait(ctx context.Context) (Snapshot, error) {
	select {
	case <-j.done:
		return j.Snapshot(), nil
	case <-ctx.Done():
		return j.Snapshot(), ctx.Err()
	}
}

// finish records the terminal status exactly once.
func (j *Job) finish(err error) {
	j.mu.Lock()
	switch {
	case err == nil:
		j.status = StatusDone
	case j.aborted || errors.Is(err, context.Canceled):
		j.status = StatusAborted
		if !errors.Is(err, context.Canceled) {
			j.errMsg = err.Error()
		}
	default:
		j.status = StatusFailed
		j.errMsg = err.Error()
	}
	j.finished = time.Now()
	j.mu.Unlock()
	j.cancel() // release the context's resources
	close(j.done)
}

// ErrUnknownKind is wrapped by Table.Start for an unregistered kind.
var ErrUnknownKind = errors.New("jobs: unknown job kind")

// ErrExclusive is wrapped by Table.Start when an exclusive kind is
// already running.
var ErrExclusive = errors.New("jobs: exclusive kind already running")

// Table is the per-process job registry: defined kinds plus every
// running and recently finished job.
type Table struct {
	base context.Context
	stop context.CancelFunc

	mu     sync.Mutex
	specs  map[string]Spec
	jobs   map[int64]*Job
	nextID int64
	wg     sync.WaitGroup
}

// NewTable returns an empty table. Call Shutdown to abort everything
// it is running.
func NewTable() *Table {
	ctx, cancel := context.WithCancel(context.Background())
	return &Table{
		base:   ctx,
		stop:   cancel,
		specs:  make(map[string]Spec),
		jobs:   make(map[int64]*Job),
		nextID: 1,
	}
}

// Define registers a job kind. Call it from the owning subsystem's
// constructor; defining a kind twice panics (two subsystems fighting
// over one name is a wiring bug, like a duplicate metric).
func (t *Table) Define(spec Spec) {
	if spec.Kind == "" || spec.Run == nil {
		panic("jobs: Define needs a kind and a runner")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.specs[spec.Kind]; dup {
		panic(fmt.Sprintf("jobs: duplicate definition of kind %q", spec.Kind))
	}
	t.specs[spec.Kind] = spec
}

// Kinds lists the defined kinds, sorted.
func (t *Table) Kinds() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.specs))
	for k := range t.specs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Start launches a job of the given kind. The error wraps
// ErrUnknownKind or ErrExclusive when refused.
func (t *Table) Start(kind string, args map[string]string) (*Job, error) {
	t.mu.Lock()
	spec, ok := t.specs[kind]
	if !ok {
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownKind, kind)
	}
	if spec.Exclusive {
		for _, j := range t.jobs {
			if j.kind == kind && !j.Snapshot().Status.Terminal() {
				t.mu.Unlock()
				return nil, fmt.Errorf("%w: %q (job %d)", ErrExclusive, kind, j.id)
			}
		}
	}
	ctx, cancel := context.WithCancel(t.base)
	j := &Job{
		id:       t.nextID,
		kind:     kind,
		args:     args,
		start:    time.Now(),
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		progress: make(map[string]int64),
		status:   StatusRunning,
	}
	t.nextID++
	t.jobs[j.id] = j
	t.wg.Add(1)
	t.mu.Unlock()
	go func() {
		defer t.wg.Done()
		j.finish(spec.Run(ctx, j))
	}()
	return j, nil
}

// Get returns a job by id.
func (t *Table) Get(id int64) (*Job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	return j, ok
}

// Abort cancels a running job's context. It reports whether the id
// existed; aborting a finished job is a no-op (still true).
func (t *Table) Abort(id int64) bool {
	t.mu.Lock()
	j, ok := t.jobs[id]
	t.mu.Unlock()
	if !ok {
		return false
	}
	j.mu.Lock()
	if j.status == StatusRunning {
		j.aborted = true
	}
	j.mu.Unlock()
	j.cancel()
	return true
}

// List snapshots every job, oldest first.
func (t *Table) List() []Snapshot {
	t.mu.Lock()
	jobs := make([]*Job, 0, len(t.jobs))
	for _, j := range t.jobs {
		jobs = append(jobs, j)
	}
	t.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].id < jobs[b].id })
	out := make([]Snapshot, len(jobs))
	for i, j := range jobs {
		out[i] = j.Snapshot()
	}
	return out
}

// Sweep drops terminal jobs that finished more than keep ago,
// returning how many were dropped. Running jobs are never swept.
func (t *Table) Sweep(keep time.Duration) int {
	cutoff := time.Now().Add(-keep)
	t.mu.Lock()
	defer t.mu.Unlock()
	dropped := 0
	for id, j := range t.jobs {
		s := j.Snapshot()
		if s.Status.Terminal() && s.Finished.Before(cutoff) {
			delete(t.jobs, id)
			dropped++
		}
	}
	return dropped
}

// Shutdown aborts every running job and waits (bounded by ctx) for
// the runners to return.
func (t *Table) Shutdown(ctx context.Context) error {
	t.mu.Lock()
	for _, j := range t.jobs {
		j.mu.Lock()
		if j.status == StatusRunning {
			j.aborted = true
		}
		j.mu.Unlock()
	}
	t.mu.Unlock()
	t.stop()
	done := make(chan struct{})
	go func() {
		t.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
