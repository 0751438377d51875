package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"log"
	"net"
	"sync"

	"repro/internal/repo"
	"repro/internal/server"
	"repro/internal/transport"
)

// streamPool lazily maintains one persistent framed stream per node —
// the gateway's data plane. Streams open on first use, reconnect with
// backoff on their own, and close when the node leaves the cluster or
// the gateway stops.
type streamPool struct {
	metrics *transport.Metrics

	mu      sync.Mutex
	streams map[string]*transport.Stream
	closed  bool
}

func newStreamPool(m *transport.Metrics) *streamPool {
	return &streamPool{metrics: m, streams: make(map[string]*transport.Stream)}
}

// get returns the node's stream, opening it on first use (the dial
// itself runs in the background). Nil once the pool is closed.
func (p *streamPool) get(node string) *transport.Stream {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	if st, ok := p.streams[node]; ok {
		return st
	}
	st := transport.Open(func(ctx context.Context) (net.Conn, error) {
		return transport.Dial(ctx, node)
	}, transport.Config{Compress: true, Metrics: p.metrics, Logf: log.Printf})
	p.streams[node] = st
	return st
}

// ready returns the node's stream only once its connection is live.
// Callers fall back to per-request HTTP while it is cold or down, so a
// node that cannot speak the protocol (an older build answers
// GET /stream with 404) never strands work on a stream that cannot
// deliver it; get() has still warmed the stream so it is ready next
// time.
func (p *streamPool) ready(node string) *transport.Stream {
	st := p.get(node)
	if st == nil || !st.Connected() {
		return nil
	}
	return st
}

// drop closes and forgets the node's stream (node left the cluster).
func (p *streamPool) drop(node string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	st := p.streams[node]
	delete(p.streams, node)
	p.mu.Unlock()
	if st != nil {
		st.Close()
	}
}

// closeAll shuts the pool down for gateway stop.
func (p *streamPool) closeAll() {
	if p == nil {
		return
	}
	p.mu.Lock()
	sts := make([]*transport.Stream, 0, len(p.streams))
	for _, st := range p.streams {
		sts = append(sts, st)
	}
	clear(p.streams)
	p.closed = true
	p.mu.Unlock()
	for _, st := range sts {
		st.Close()
	}
}

// putBlobNode copies a blob to one node synchronously — one RPC over
// its stream when live, else HTTP with transport retries. Repair and
// rebalance copies come through here because they need a definite
// outcome (a 410 turns the copy into delete propagation). The put is
// idempotent, so a stream disconnect mid-call safely retries over
// HTTP.
func (g *Gateway) putBlobNode(ctx context.Context, node string, data []byte, force bool) (server.PutVBSResponse, error) {
	var out server.PutVBSResponse
	if st := g.streams.ready(node); st != nil {
		hctx, cancel := context.WithTimeout(ctx, g.hop)
		resp, err := st.Call(hctx, transport.EncodeObjPut(repo.DigestOf(data), force, data), true)
		cancel()
		if err == nil {
			derr := server.DecodeStreamResult(resp, &out)
			g.observe(node, derr)
			return out, derr
		}
	}
	c := g.reg.Client(node)
	if c == nil {
		return out, errNotMember
	}
	err := g.retryTransport(ctx, node, func(ctx context.Context) (err error) {
		out, err = c.PutVBS(ctx, data, force)
		return err
	})
	return out, err
}

// nodeBatch runs one sub-batch on a node — one RPC over its stream
// when live, else one HTTP POST. A call that reached the wire without
// a response (disconnect, or the hop deadline expiring mid-call) is
// surfaced, never replayed over HTTP: the node may have executed the
// batch, and loads are not idempotent.
func (g *Gateway) nodeBatch(ctx context.Context, node string, req server.BatchRequest) (server.BatchResponse, error) {
	var out server.BatchResponse
	g.proxied.Add(1)
	if st := g.streams.ready(node); st != nil {
		body, err := json.Marshal(req)
		if err != nil {
			return out, err
		}
		hctx, cancel := context.WithTimeout(ctx, g.hop)
		// Raw: the body is mostly base64'd LZSS containers; per-frame
		// flate would build Huffman tables per frame for little gain.
		resp, cerr := st.Call(hctx, transport.EncodeMsg(transport.MsgBatch, body), true)
		cancel()
		if cerr == nil {
			derr := server.DecodeStreamResult(resp, &out)
			g.observe(node, derr)
			return out, derr
		}
		g.observe(node, cerr)
		if errors.Is(cerr, transport.ErrDisconnected) {
			// Written with no response: outcome unknown, retry unsafe.
			return out, cerr
		}
		// The request was never written (still queued at ctx expiry,
		// pool closing, stream racing shut): HTTP is safe.
	}
	c := g.reg.Client(node)
	if c == nil {
		return out, errNotMember
	}
	hctx, cancel := context.WithTimeout(ctx, g.hop)
	defer cancel()
	out, err := c.Batch(hctx, req)
	g.observe(node, err)
	return out, err
}
