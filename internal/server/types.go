package server

import (
	"repro/internal/controller"
	"repro/internal/jobs"
)

// StartJobRequest is the body of POST /jobs on both vbsd and vbsgw.
type StartJobRequest struct {
	// Kind names a defined job kind (GET /jobs on a 400 reply lists
	// the valid ones).
	Kind string `json:"kind"`
	// Args are kind-specific string arguments (e.g. "max" for warm).
	Args map[string]string `json:"args,omitempty"`
}

// JobInfo is the wire view of one background job — jobs.Snapshot
// aliased into the API package so clients need not import the engine.
type JobInfo = jobs.Snapshot

// HealthResponse is the body of GET /healthz on vbsd. Instance is the
// boot instance in the high bits of every task id (see InstanceShift).
type HealthResponse struct {
	Status   string `json:"status"`
	Instance int64  `json:"instance"`
}

// LoadRequest is the body of POST /tasks.
type LoadRequest struct {
	// VBS is the base64 (standard encoding) VBS container.
	VBS string `json:"vbs"`
	// Fabric optionally pins the task to one fabric index; nil lets
	// the placement policy rank the pool.
	Fabric *int `json:"fabric,omitempty"`
	// X, Y optionally pin the task position (both or neither).
	X *int `json:"x,omitempty"`
	Y *int `json:"y,omitempty"`
	// Policy optionally overrides the server's placement policy for
	// this load ("first-fit", "best-fit", "emptiest"); empty uses the
	// server default.
	Policy string `json:"policy,omitempty"`
}

// LoadResponse describes a placed task.
type LoadResponse struct {
	ID     int64  `json:"id"`
	Fabric int    `json:"fabric"`
	X      int    `json:"x"`
	Y      int    `json:"y"`
	Digest string `json:"digest"`
	TaskW  int    `json:"task_w"`
	TaskH  int    `json:"task_h"`
	// Cached reports whether the decoded bitstream came from the LRU
	// cache (true) or was de-virtualized for this request (false).
	Cached bool `json:"cached"`
	// CompressionRatio is VBS size over raw size (smaller is better).
	CompressionRatio float64 `json:"compression_ratio"`
	// LoadMS is the server-side latency of this load in milliseconds.
	LoadMS float64 `json:"load_ms"`
	// Compacted reports that the load only succeeded after the
	// auto-compaction retry defragmented a fabric.
	Compacted bool `json:"compacted,omitempty"`
}

// BatchOp is one operation inside POST /tasks:batch. Exactly one op
// kind applies per entry; unknown kinds fail that entry, not the
// batch.
type BatchOp struct {
	// Op selects the operation: "load", "get" or "unload". Empty with
	// a VBS payload defaults to "load".
	Op string `json:"op,omitempty"`
	// Load fields — same semantics as LoadRequest.
	VBS    string `json:"vbs,omitempty"`
	Fabric *int   `json:"fabric,omitempty"`
	X      *int   `json:"x,omitempty"`
	Y      *int   `json:"y,omitempty"`
	Policy string `json:"policy,omitempty"`
	// Digest selects the blob for "get" (hex).
	Digest string `json:"digest,omitempty"`
	// ID selects the task for "unload".
	ID int64 `json:"id,omitempty"`
}

// BatchRequest is the body of POST /tasks:batch: many task operations
// in one round trip. Ops execute sequentially in order; each entry
// succeeds or fails on its own.
type BatchRequest struct {
	Ops []BatchOp `json:"ops"`
}

// BatchResult is the outcome of one batch op, in request order.
// Status carries the HTTP code the op would have produced as its own
// request; Error is set on non-2xx.
type BatchResult struct {
	Status int    `json:"status"`
	Error  string `json:"error,omitempty"`
	// Load is the placement result of a successful "load".
	Load *LoadResponse `json:"load,omitempty"`
	// VBS is the base64 container of a successful "get".
	VBS string `json:"vbs,omitempty"`
}

// BatchResponse is the body of a 200 from POST /tasks:batch.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// RelocateRequest is the body of POST /tasks/{id}/relocate. X and Y
// are pointers so a missing coordinate is distinguishable from an
// explicit 0: both are required, and the daemon rejects a partial or
// empty body instead of silently moving the task to the origin.
type RelocateRequest struct {
	X *int `json:"x"`
	Y *int `json:"y"`
}

// CompactResponse is the body of POST /fabrics/{i}/compact.
type CompactResponse struct {
	Fabric int `json:"fabric"`
	// Moved is the number of tasks relocated toward the origin.
	Moved int `json:"moved"`
}

// PutVBSRequest is the body of POST /vbs: blob admission without
// placement. The cluster gateway uses it to replicate containers to
// nodes that do not host the task.
type PutVBSRequest struct {
	// VBS is the base64 (standard encoding) VBS container.
	VBS string `json:"vbs"`
	// Force lifts a delete tombstone before admitting: set on explicit
	// user writes. Automated copies (read-repair, rebalance) leave it
	// false and are refused with 410 Gone while the tombstone lives.
	Force bool `json:"force,omitempty"`
}

// PutVBSResponse describes an admitted blob.
type PutVBSResponse struct {
	Digest string `json:"digest"`
	Bytes  int    `json:"bytes"`
	// Existed reports that the store already held the digest (the put
	// deduplicated instead of admitting new bytes).
	Existed bool `json:"existed"`
}

// TaskInfo describes one loaded task in GET /tasks.
type TaskInfo struct {
	ID     int64  `json:"id"`
	Fabric int    `json:"fabric"`
	X      int    `json:"x"`
	Y      int    `json:"y"`
	TaskW  int    `json:"task_w"`
	TaskH  int    `json:"task_h"`
	Digest string `json:"digest"`
	// Node names the vbsd node hosting the task. A single daemon
	// leaves it empty; the cluster gateway fills it when merging
	// scatter-gathered listings.
	Node string `json:"node,omitempty"`
}

// FabricInfo describes one fabric in GET /fabrics.
type FabricInfo struct {
	Index  int `json:"index"`
	Width  int `json:"width"`
	Height int `json:"height"`
	W      int `json:"channel_width"`
	K      int `json:"lut_size"`
	// Node names the vbsd node owning the fabric (cluster gateway
	// only; empty on a single daemon). In a merged listing Index is
	// the fleet fabric id (node boot instance over the local index).
	Node string `json:"node,omitempty"`
	controller.Stats
}

// TombstoneInfo describes one live delete tombstone in
// GET /tombstones.
type TombstoneInfo struct {
	Digest string `json:"digest"`
	// Expires is the unix time (seconds) the tombstone stops blocking.
	Expires int64 `json:"expires"`
}

// ChaosFaults mirrors repo.Faults on the wire for the /chaos/faults
// endpoints (registered only with Options.EnableChaos). Field-for-
// field identical so handlers can convert between them directly.
type ChaosFaults struct {
	FailPuts     bool `json:"fail_puts"`
	FailReads    bool `json:"fail_reads"`
	CorruptReads bool `json:"corrupt_reads"`
	ShortReads   bool `json:"short_reads"`
}

// VBSInfo describes one stored blob in GET /vbs.
type VBSInfo struct {
	Digest string `json:"digest"`
	Bytes  int64  `json:"bytes"`
	// RAM / Disk report tier residency (both may be true).
	RAM  bool `json:"ram"`
	Disk bool `json:"disk"`
	// Tasks counts live tasks currently referencing the blob; a blob
	// with Tasks > 0 refuses DELETE /vbs/{digest}.
	Tasks int `json:"tasks"`
	// Replicas counts cluster nodes holding the blob (cluster gateway
	// only; zero on a single daemon).
	Replicas int `json:"replicas,omitempty"`
}

// errorResponse is the body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}
