package server_test

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/store"
	"repro/internal/transport"
)

// TestBatchMixedOps drives POST /tasks:batch end to end: loads, a
// get, an unload and a bad entry in one round trip, with per-op
// statuses matching what the unbatched endpoints would have said.
func TestBatchMixedOps(t *testing.T) {
	c, _ := newTestDaemon(t, 1, 30, server.Options{})
	data, err := makeVBS(1, 8, 8, 8, 2).Encode()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	resp, err := c.Batch(ctx, server.BatchRequest{Ops: []server.BatchOp{
		server.BatchLoadOp(data),
		server.BatchLoadOp(data),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(resp.Results))
	}
	for i, r := range resp.Results {
		if r.Status != http.StatusCreated || r.Load == nil {
			t.Fatalf("load %d: status %d error %q", i, r.Status, r.Error)
		}
	}
	if !resp.Results[1].Load.Cached {
		t.Fatal("second load of the same digest should hit the decode cache")
	}
	digest := resp.Results[0].Load.Digest
	id := resp.Results[0].Load.ID

	resp, err = c.Batch(ctx, server.BatchRequest{Ops: []server.BatchOp{
		{Op: "get", Digest: digest},
		{Op: "unload", ID: id},
		{Op: "unload", ID: 99999},
		{Op: "frobnicate"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{http.StatusOK, http.StatusNoContent, http.StatusNotFound, http.StatusBadRequest}
	for i, r := range resp.Results {
		if r.Status != want[i] {
			t.Fatalf("op %d: status %d (error %q), want %d", i, r.Status, r.Error, want[i])
		}
	}
	if resp.Results[0].VBS == "" {
		t.Fatal("get returned no container")
	}

	// A batch that is malformed as a whole is refused outright.
	if _, err := c.Batch(ctx, server.BatchRequest{}); server.StatusCode(err) != http.StatusBadRequest {
		t.Fatalf("empty batch: got %v, want 400", err)
	}
}

// TestStreamObjPut exercises the node's stream endpoint the way the
// gateway uses it: async replication puts with digest re-verification,
// synchronous puts with HTTP-status results, and a batch RPC.
func TestStreamObjPut(t *testing.T) {
	c, _ := newTestDaemon(t, 1, 30, server.Options{})
	data, err := makeVBS(2, 8, 8, 8, 2).Encode()
	if err != nil {
		t.Fatal(err)
	}
	digest := store.DigestOf(data)

	st := transport.Open(func(ctx context.Context) (net.Conn, error) {
		return transport.Dial(ctx, c.Base())
	}, transport.Config{Compress: true})
	defer st.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Async data-frame put: the pipelined replication path.
	acked := make(chan error, 1)
	msg := transport.EncodeObjPut([32]byte(digest), true, data)
	if err := st.Send(ctx, msg, true, func(err error) { acked <- err }); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-acked:
		if err != nil {
			t.Fatalf("objput not acked: %v", err)
		}
	case <-ctx.Done():
		t.Fatal("objput never acked")
	}
	waitBlob(t, c, digest.String())

	// A corrupted payload must be refused: flip the digest so the
	// content address no longer matches the bytes.
	var bad [32]byte = [32]byte(digest)
	bad[0] ^= 0xff
	wrong := store.Digest(bad)
	if err := st.Send(ctx, transport.EncodeObjPut(bad, true, data), true, nil); err != nil {
		t.Fatal(err)
	}

	// Synchronous put RPC: the read-repair / rebalance copy path.
	resp, err := st.Call(ctx, msg, true)
	if err != nil {
		t.Fatal(err)
	}
	var put server.PutVBSResponse
	if err := server.DecodeStreamResult(resp, &put); err != nil {
		t.Fatal(err)
	}
	if put.Digest != digest.String() || !put.Existed {
		t.Fatalf("sync objput: %+v", put)
	}

	// Batch RPC over the stream.
	breq, _ := json.Marshal(server.BatchRequest{Ops: []server.BatchOp{server.BatchLoadOp(data)}})
	resp, err = st.Call(ctx, transport.EncodeMsg(transport.MsgBatch, breq), false)
	if err != nil {
		t.Fatal(err)
	}
	var batch server.BatchResponse
	if err := server.DecodeStreamResult(resp, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 1 || batch.Results[0].Status != http.StatusCreated {
		t.Fatalf("stream batch: %+v", batch)
	}

	// The mismatched put from above must never have been admitted.
	if _, err := c.GetVBS(context.Background(), wrong.String()); server.StatusCode(err) != http.StatusNotFound {
		t.Fatalf("corrupt objput visible: %v", err)
	}
}

// TestStreamTombstone pins the status mapping: a non-forced stream
// put against a tombstoned digest comes back 410 Gone, exactly like
// its HTTP counterpart.
func TestStreamTombstone(t *testing.T) {
	dir := t.TempDir()
	c, _ := newTestDaemon(t, 1, 30, server.Options{DataDir: dir})
	data, err := makeVBS(3, 8, 8, 8, 2).Encode()
	if err != nil {
		t.Fatal(err)
	}
	digest := store.DigestOf(data)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.PutVBS(ctx, data, false); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteVBS(ctx, digest.String()); err != nil {
		t.Fatal(err)
	}

	st := transport.Open(func(ctx context.Context) (net.Conn, error) {
		return transport.Dial(ctx, c.Base())
	}, transport.Config{})
	defer st.Close()

	resp, err := st.Call(ctx, transport.EncodeObjPut([32]byte(digest), false, data), true)
	if err != nil {
		t.Fatal(err)
	}
	if derr := server.DecodeStreamResult(resp, nil); server.StatusCode(derr) != http.StatusGone {
		t.Fatalf("tombstoned stream put: got %v, want 410", derr)
	}
	// Forced put lifts the tombstone — explicit user intent.
	resp, err = st.Call(ctx, transport.EncodeObjPut([32]byte(digest), true, data), true)
	if err != nil {
		t.Fatal(err)
	}
	if derr := server.DecodeStreamResult(resp, nil); derr != nil {
		t.Fatalf("forced stream put: %v", derr)
	}
}

// waitBlob polls until the daemon serves the digest.
func waitBlob(t *testing.T, c *server.Client, digest string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.GetVBS(context.Background(), digest); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("blob %s never appeared", digest)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
