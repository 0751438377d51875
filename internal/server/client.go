package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/metrics"
	"repro/internal/transport"
)

// Client is a thin Go client for the vbsd HTTP API. Every method takes
// a context.Context first for per-call timeouts and cancellation (the
// cluster gateway uses it to bound each hop).
type Client struct {
	base string
	hc   *http.Client
}

// NewClient targets a daemon at base (e.g. "http://localhost:8931").
// httpClient may be nil for http.DefaultClient.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: base, hc: httpClient}
}

// Base returns the daemon base URL the client targets.
func (c *Client) Base() string { return c.base }

// apiError is a non-2xx reply surfaced to the caller.
type apiError struct {
	Status  int
	Message string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("server: %d: %s", e.Status, e.Message)
}

// StatusCode returns the HTTP status of a server reply error, or 0
// when err is not one (transport failures, cancellations).
func StatusCode(err error) int {
	if e, ok := err.(*apiError); ok {
		return e.Status
	}
	return 0
}

// ErrorMessage returns the server-sent message of a reply error
// without the client's "server: <code>: " framing, and err.Error()
// for every other error — what a proxy should relay upstream.
func ErrorMessage(err error) string {
	if e, ok := err.(*apiError); ok {
		return e.Message
	}
	return err.Error()
}

// send issues one request and hands a 2xx response to the caller, who
// must close its body. A non-2xx reply is drained into an *apiError.
func (c *Client) send(ctx context.Context, method, path string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		defer resp.Body.Close()
		var er errorResponse
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&er) == nil && er.Error != "" {
			msg = er.Error
		}
		return nil, &apiError{Status: resp.StatusCode, Message: msg}
	}
	return resp, nil
}

// Do sends in (when non-nil) as a JSON body to path and decodes a 2xx
// reply into out (when non-nil). The endpoint methods ride it, and so
// do clients of endpoints only the gateway serves (cluster.Admin), so
// their errors answer StatusCode and ErrorMessage too.
func (c *Client) Do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	resp, err := c.send(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// DecodeStreamResult maps a transport result envelope onto the same
// error surface as HTTP replies: a 2xx decodes the body into out,
// anything else becomes the error StatusCode and ErrorMessage see —
// stream callers and HTTP callers share one error vocabulary.
func DecodeStreamResult(resp []byte, out any) error {
	status, body, err := transport.DecodeResult(resp)
	if err != nil {
		return err
	}
	if status >= 300 {
		var er errorResponse
		msg := http.StatusText(status)
		if json.Unmarshal(body, &er) == nil && er.Error != "" {
			msg = er.Error
		}
		return &apiError{Status: status, Message: msg}
	}
	if out != nil {
		return json.Unmarshal(body, out)
	}
	return nil
}

// Load submits a VBS container for placement. req carries the
// fabric/position pinning and the per-request placement policy (the
// zero value leaves every choice to the daemon); its VBS field is
// filled from container.
func (c *Client) Load(ctx context.Context, container []byte, req LoadRequest) (LoadResponse, error) {
	req.VBS = base64.StdEncoding.EncodeToString(container)
	var out LoadResponse
	err := c.Do(ctx, http.MethodPost, "/tasks", req, &out)
	return out, err
}

// Unload removes a loaded task.
func (c *Client) Unload(ctx context.Context, id int64) error {
	return c.Do(ctx, http.MethodDelete, fmt.Sprintf("/tasks/%d", id), nil, nil)
}

// Relocate moves a loaded task on its fabric.
func (c *Client) Relocate(ctx context.Context, id int64, x, y int) (TaskInfo, error) {
	var out TaskInfo
	err := c.Do(ctx, http.MethodPost, fmt.Sprintf("/tasks/%d/relocate", id),
		RelocateRequest{X: &x, Y: &y}, &out)
	return out, err
}

// Compact defragments one fabric, returning how many tasks moved.
func (c *Client) Compact(ctx context.Context, fabric int) (CompactResponse, error) {
	var out CompactResponse
	err := c.Do(ctx, http.MethodPost, fmt.Sprintf("/fabrics/%d/compact", fabric), nil, &out)
	return out, err
}

// Tasks lists loaded tasks.
func (c *Client) Tasks(ctx context.Context) ([]TaskInfo, error) {
	var out []TaskInfo
	err := c.Do(ctx, http.MethodGet, "/tasks", nil, &out)
	return out, err
}

// Fabrics describes the daemon's fabric pool.
func (c *Client) Fabrics(ctx context.Context) ([]FabricInfo, error) {
	var out []FabricInfo
	err := c.Do(ctx, http.MethodGet, "/fabrics", nil, &out)
	return out, err
}

// Health probes GET /healthz, returning the daemon's boot instance
// and a nil error when it answers 200 within the context deadline. A
// gateway reports no instance (0).
func (c *Client) Health(ctx context.Context) (int64, error) {
	var out HealthResponse
	err := c.Do(ctx, http.MethodGet, "/healthz", nil, &out)
	return out.Instance, err
}

// PutVBS admits a container into the daemon's store without placing a
// task (POST /vbs) — the gateway's replication primitive. A delete
// tombstone refuses the put with 410 Gone unless force is set: force
// marks an explicit user write, which lifts any tombstone first.
func (c *Client) PutVBS(ctx context.Context, container []byte, force bool) (PutVBSResponse, error) {
	var out PutVBSResponse
	err := c.Do(ctx, http.MethodPost, "/vbs",
		PutVBSRequest{VBS: base64.StdEncoding.EncodeToString(container), Force: force}, &out)
	return out, err
}

// Batch submits a mixed batch of task operations in one round trip
// (POST /tasks:batch). Per-op outcomes come back in request order;
// the call errs only when the batch as a whole is refused.
func (c *Client) Batch(ctx context.Context, req BatchRequest) (BatchResponse, error) {
	var out BatchResponse
	err := c.Do(ctx, http.MethodPost, "/tasks:batch", req, &out)
	return out, err
}

// BatchLoadOp builds a "load" batch entry from raw container bytes.
func BatchLoadOp(container []byte) BatchOp {
	return BatchOp{Op: "load", VBS: base64.StdEncoding.EncodeToString(container)}
}

// BatchError lifts a non-2xx per-op batch result into the same
// *apiError the unbatched call would have returned, so StatusCode and
// ErrorMessage work identically on both paths. Nil for 2xx.
func BatchError(r BatchResult) error {
	if r.Status >= 200 && r.Status < 300 {
		return nil
	}
	msg := r.Error
	if msg == "" {
		msg = http.StatusText(r.Status)
	}
	return &apiError{Status: r.Status, Message: msg}
}

// ListVBS lists every stored blob across the RAM and disk tiers.
func (c *Client) ListVBS(ctx context.Context) ([]VBSInfo, error) {
	var out []VBSInfo
	err := c.Do(ctx, http.MethodGet, "/vbs", nil, &out)
	return out, err
}

// GetVBS downloads a stored container verbatim by hex digest.
func (c *Client) GetVBS(ctx context.Context, digest string) ([]byte, error) {
	resp, err := c.send(ctx, http.MethodGet, "/vbs/"+digest, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// HasVBS reports whether the node holds a blob, via a HEAD that moves
// no payload (Go's ServeMux "GET /vbs/{digest}" pattern also matches
// HEAD). Used by the gateway's read-repair owner verification.
func (c *Client) HasVBS(ctx context.Context, digest string) (bool, error) {
	resp, err := c.send(ctx, http.MethodHead, "/vbs/"+digest, nil)
	if StatusCode(err) == http.StatusNotFound {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	resp.Body.Close()
	return true, nil
}

// SetFaults arms (or, with the zero value, clears) the node's disk
// fault-injection seam. The node must run with chaos endpoints
// enabled (vbsd -chaos) and a data dir.
func (c *Client) SetFaults(ctx context.Context, f ChaosFaults) error {
	return c.Do(ctx, http.MethodPost, "/chaos/faults", f, nil)
}

// DeleteVBS drops a stored blob from both tiers and records a delete
// tombstone so automated re-replication cannot resurrect it. The
// daemon refuses (409) while any live task references the digest.
func (c *Client) DeleteVBS(ctx context.Context, digest string) error {
	return c.Do(ctx, http.MethodDelete, "/vbs/"+digest, nil, nil)
}

// TrimVBS physically removes a blob without tombstoning — the
// rebalancer's primitive for dropping a surplus replica whose digest
// must stay storable elsewhere. Refused (409) while tasks reference
// the digest.
func (c *Client) TrimVBS(ctx context.Context, digest string) error {
	return c.Do(ctx, http.MethodDelete, "/vbs/"+digest+"?trim=1", nil, nil)
}

// Tombstones lists the node's live delete tombstones.
func (c *Client) Tombstones(ctx context.Context) ([]TombstoneInfo, error) {
	var out []TombstoneInfo
	err := c.Do(ctx, http.MethodGet, "/tombstones", nil, &out)
	return out, err
}

// StartJob launches a background job (POST /jobs) and returns its
// initial snapshot. An unknown kind is a 400, an exclusive collision
// a 409 (inspect with StatusCode).
func (c *Client) StartJob(ctx context.Context, kind string, args map[string]string) (JobInfo, error) {
	var out JobInfo
	err := c.Do(ctx, http.MethodPost, "/jobs", StartJobRequest{Kind: kind, Args: args}, &out)
	return out, err
}

// Jobs lists every running and recently finished job.
func (c *Client) Jobs(ctx context.Context) ([]JobInfo, error) {
	var out []JobInfo
	err := c.Do(ctx, http.MethodGet, "/jobs", nil, &out)
	return out, err
}

// Job fetches one job's snapshot by id.
func (c *Client) Job(ctx context.Context, id int64) (JobInfo, error) {
	var out JobInfo
	err := c.Do(ctx, http.MethodGet, fmt.Sprintf("/jobs/%d", id), nil, &out)
	return out, err
}

// AbortJob signals a job to stop (DELETE /jobs/{id}); the runner
// winds down asynchronously — poll Job for the terminal state.
func (c *Client) AbortJob(ctx context.Context, id int64) (JobInfo, error) {
	var out JobInfo
	err := c.Do(ctx, http.MethodDelete, fmt.Sprintf("/jobs/%d", id), nil, &out)
	return out, err
}

// Metrics scrapes GET /metrics and parses the Prometheus text
// exposition into samples.
func (c *Client) Metrics(ctx context.Context) ([]metrics.Sample, error) {
	resp, err := c.send(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return metrics.Parse(resp.Body)
}
