package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// The benchmark speaks the HTTP/JSON wire API with its own request
// and reply structs rather than server.Client, so that client-side
// refactors inside internal/server cannot break its build: the wire
// format is the contract.

type loadReply struct {
	ID     int64  `json:"id"`
	Fabric int    `json:"fabric"`
	X      int    `json:"x"`
	Y      int    `json:"y"`
	Digest string `json:"digest"`
	TaskW  int    `json:"task_w"`
	TaskH  int    `json:"task_h"`
	Cached bool   `json:"cached"`
	// CompressionRatio, LoadMS and Compacted complete the daemon's
	// reply; the probes re-encode this struct to price the reply path.
	CompressionRatio float64 `json:"compression_ratio"`
	LoadMS           float64 `json:"load_ms"`
	Compacted        bool    `json:"compacted,omitempty"`
}

type batchOp struct {
	Op     string `json:"op"`
	VBS    string `json:"vbs,omitempty"`
	Digest string `json:"digest,omitempty"`
	ID     int64  `json:"id,omitempty"`
}

type batchRequest struct {
	Ops []batchOp `json:"ops"`
}

type batchResult struct {
	Status int        `json:"status"`
	Error  string     `json:"error,omitempty"`
	Load   *loadReply `json:"load,omitempty"`
	VBS    string     `json:"vbs,omitempty"`
}

type batchReply struct {
	Results []batchResult `json:"results"`
}

type fabricInfo struct {
	FreeMacros  int `json:"free_macros"`
	TotalMacros int `json:"total_macros"`
}

// wire is one client's connection to a daemon: sequential requests
// over one keep-alive connection.
type wire struct {
	base string
	hc   *http.Client
}

func newWire(base string) *wire {
	return &wire{base: base, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

func (w *wire) close() { w.hc.CloseIdleConnections() }

// do sends one request and returns the status and the whole body.
func (w *wire) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// expect is do plus the status check: anything but want is an error
// that quotes the daemon's reply.
func (w *wire) expect(ctx context.Context, want int, method, path string, body []byte) ([]byte, error) {
	status, out, err := w.do(ctx, method, path, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, status, want, strings.TrimSpace(string(out)))
	}
	return out, nil
}

func (w *wire) load(ctx context.Context, body []byte) ([]byte, error) {
	return w.expect(ctx, http.StatusCreated, http.MethodPost, "/tasks", body)
}

func (w *wire) get(ctx context.Context, digest string) ([]byte, error) {
	return w.expect(ctx, http.StatusOK, http.MethodGet, "/vbs/"+digest, nil)
}

func (w *wire) unload(ctx context.Context, id int64) error {
	_, err := w.expect(ctx, http.StatusNoContent, http.MethodDelete, "/tasks/"+strconv.FormatInt(id, 10), nil)
	return err
}

func (w *wire) batch(ctx context.Context, body []byte) ([]byte, error) {
	return w.expect(ctx, http.StatusOK, http.MethodPost, "/tasks:batch", body)
}

func (w *wire) getJSON(ctx context.Context, path string, v any) error {
	out, err := w.expect(ctx, http.StatusOK, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(out, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}
