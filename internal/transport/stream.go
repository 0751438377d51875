package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"
)

// Stream errors.
var (
	// ErrClosed reports an operation on a closed stream.
	ErrClosed = errors.New("transport: stream closed")
	// ErrDisconnected fails an RPC whose outcome is unknown: the
	// request was written (or handed to the writer) but no response
	// arrived — the connection broke, or the caller's ctx expired with
	// the call on the wire. The receiver may or may not have processed
	// it, so neither the stream nor its caller may blindly retransmit
	// a non-idempotent request. Check with errors.Is: the ctx-expiry
	// case wraps both this and the ctx error.
	ErrDisconnected = errors.New("transport: call in flight with no response")
)

// Config tunes a stream endpoint (either side).
type Config struct {
	// Window bounds in-flight work: unacked data frames plus
	// outstanding RPCs (0 = 64). The enqueue queue holds up to twice
	// the window before Send/Call block.
	Window int
	// MaxPayload bounds one frame's decoded payload
	// (0 = DefaultMaxPayload).
	MaxPayload int
	// Compress enables per-frame flate for payloads not marked raw.
	Compress bool
	// DialTimeout bounds one dial attempt (0 = 5s).
	DialTimeout time.Duration
	// BackoffBase/BackoffMax shape the reconnect backoff
	// (0 = 50ms / 3s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Metrics receives transport counters (nil = none).
	Metrics *Metrics
	// Logf receives connection lifecycle lines (nil = discard).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.MaxPayload <= 0 {
		c.MaxPayload = DefaultMaxPayload
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 3 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Dialer opens one connection to the stream's peer.
type Dialer func(ctx context.Context) (net.Conn, error)

// pending is one enqueued frame awaiting write, ack, or response.
type pending struct {
	typ   byte
	flags byte
	seq   uint64
	msg   []byte
	done  func(error)    // data frames: fires on ack (nil) or stream close
	resp  chan rpcResult // req frames: receives the response exactly once
}

type rpcResult struct {
	payload []byte
	err     error
}

// Stream is the sending end of a persistent connection: callers
// enqueue messages, a writer goroutine batches them onto the wire
// (flushing when the queue idles), data frames are held until the
// receiver's cumulative ack and retransmitted after a reconnect
// (content-addressed puts are idempotent, so replays are safe), and
// RPCs in flight across a disconnect fail with ErrDisconnected rather
// than replaying.
type Stream struct {
	dial   Dialer
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*pending          // enqueued, not yet written on the live conn
	unacked map[uint64]*pending // data frames written, awaiting cumulative ack
	calls   map[uint64]*pending // req frames written, awaiting their resp
	dataSeq uint64
	reqSeq  uint64
	closed  bool
	broken  bool     // the live conn failed; writer must stop
	conn    net.Conn // live conn, for Close to unblock the reader

	loopDone chan struct{}
}

// Open starts a stream over dial. The first connection is established
// in the background; Send and Call may be used immediately.
func Open(dial Dialer, cfg Config) *Stream {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Stream{
		dial:     dial,
		cfg:      cfg.withDefaults(),
		ctx:      ctx,
		cancel:   cancel,
		unacked:  make(map[uint64]*pending),
		calls:    make(map[uint64]*pending),
		loopDone: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.loop()
	return s
}

// Send enqueues a fire-and-forget data message. raw marks an
// already-compressed payload (shipped verbatim). done, when non-nil,
// fires exactly once: with nil when the receiver acks the frame, or
// with an error when the stream closes first. Send blocks only when
// the queue is full, honoring ctx.
func (s *Stream) Send(ctx context.Context, msg []byte, raw bool, done func(error)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.waitSpaceLocked(ctx); err != nil {
		return err
	}
	s.dataSeq++
	p := &pending{typ: FrameData, seq: s.dataSeq, msg: msg, done: done}
	if raw {
		p.flags = FlagRaw
	}
	s.queue = append(s.queue, p)
	s.cond.Broadcast()
	return nil
}

// Call performs one RPC over the stream, honoring ctx. Concurrent
// calls multiplex; responses match by sequence number.
func (s *Stream) Call(ctx context.Context, msg []byte, raw bool) ([]byte, error) {
	s.mu.Lock()
	if err := s.waitSpaceLocked(ctx); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.reqSeq++
	p := &pending{typ: FrameReq, seq: s.reqSeq, msg: msg, resp: make(chan rpcResult, 1)}
	if raw {
		p.flags = FlagRaw
	}
	s.queue = append(s.queue, p)
	s.cond.Broadcast()
	s.mu.Unlock()

	select {
	case r := <-p.resp:
		return r.payload, r.err
	case <-ctx.Done():
		// Abandon the call: drop it wherever it sits so a late response
		// is discarded and the window slot frees. Where it sat decides
		// what the caller may do next — still queued means the request
		// never reached the wire and a fallback retry is safe; gone
		// from the queue means the writer took it (it is on the wire or
		// about to be) and the peer may still execute it.
		s.mu.Lock()
		written := true
		for i, q := range s.queue {
			if q == p {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				written = false
				break
			}
		}
		delete(s.calls, p.seq)
		s.cond.Broadcast()
		s.mu.Unlock()
		if !written {
			return nil, ctx.Err()
		}
		// A response (or disconnect error) may have raced the expiry
		// onto p.resp after we dropped the call — prefer the real
		// outcome over guessing.
		select {
		case r := <-p.resp:
			return r.payload, r.err
		default:
		}
		return nil, fmt.Errorf("%w: %w", ErrDisconnected, ctx.Err())
	}
}

// waitSpaceLocked blocks until the enqueue queue has room, the ctx is
// done, or the stream closes.
func (s *Stream) waitSpaceLocked(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	for {
		if s.closed {
			return ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(s.queue) < 2*s.cfg.Window {
			return nil
		}
		s.cond.Wait()
	}
}

// Connected reports whether the stream currently holds a live
// connection. Callers with a synchronous fallback path (the gateway's
// HTTP scatter) consult it so work is never stranded on a stream whose
// peer is cold, down, or does not speak the protocol at all.
func (s *Stream) Connected() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn != nil && !s.broken && !s.closed
}

// Close shuts the stream down: the connection drops, queued and
// unacked data frames fail their done callbacks with ErrClosed, and
// in-flight RPCs return ErrClosed.
func (s *Stream) Close() error {
	s.mu.Lock()
	s.closed = true
	conn := s.conn
	s.conn = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	s.cancel()
	if conn != nil {
		conn.Close()
	}
	<-s.loopDone
	return nil
}

// loop owns the connection lifecycle: dial with backoff, run the
// connection until it breaks, requeue what must survive, repeat.
func (s *Stream) loop() {
	defer close(s.loopDone)
	defer s.failAll(ErrClosed)
	backoff := s.cfg.BackoffBase
	connected := false
	for {
		if s.isClosed() {
			return
		}
		dctx, cancel := context.WithTimeout(s.ctx, s.cfg.DialTimeout)
		conn, err := s.dial(dctx)
		cancel()
		if err != nil {
			s.cfg.Metrics.dialFail()
			if !s.sleep(backoff) {
				return
			}
			backoff = min(2*backoff, s.cfg.BackoffMax)
			continue
		}
		if connected {
			s.cfg.Metrics.reconnect()
			s.cfg.Logf("transport: reconnected to %s", conn.RemoteAddr())
		}
		connected = true
		backoff = s.cfg.BackoffBase

		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conn = conn
		s.broken = false
		s.mu.Unlock()

		s.cfg.Metrics.streamUp()
		s.runConn(conn)
		s.cfg.Metrics.streamDown()
		conn.Close()

		s.mu.Lock()
		s.conn = nil
		closed := s.closed
		// Fail RPCs written but unanswered: replaying them is unsafe.
		var failed []*pending
		for seq, p := range s.calls {
			delete(s.calls, seq)
			failed = append(failed, p)
		}
		// Requeue unacked data frames ahead of the queue, in sequence
		// order: the receiver processes duplicates idempotently, so
		// retransmission is the durability path after a reconnect.
		if len(s.unacked) > 0 {
			resend := make([]*pending, 0, len(s.unacked))
			for _, p := range s.unacked {
				resend = append(resend, p)
			}
			sort.Slice(resend, func(a, b int) bool { return resend[a].seq < resend[b].seq })
			clear(s.unacked)
			s.queue = append(resend, s.queue...)
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		for _, p := range failed {
			p.resp <- rpcResult{err: ErrDisconnected}
		}
		if closed {
			return
		}
	}
}

// runConn drives one live connection: a reader goroutine consumes
// acks and responses while this goroutine writes frames, flushing the
// buffered writer whenever the queue idles (send-side batching).
func (s *Stream) runConn(conn net.Conn) {
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		s.readLoop(conn)
	}()

	bw := bufio.NewWriterSize(conn, 64<<10)
	needFlush := false
	for {
		p, ok := s.nextFrame(needFlush)
		if !ok {
			break
		}
		if p == nil {
			if err := bw.Flush(); err != nil {
				s.markBroken()
				break
			}
			needFlush = false
			continue
		}
		n, compressed, err := WriteFrame(bw, Frame{Type: p.typ, Flags: p.flags, Seq: p.seq, Payload: p.msg}, s.cfg.Compress)
		if err != nil {
			s.markBroken()
			break
		}
		s.cfg.Metrics.sent(n, compressed)
		needFlush = true
	}
	if bw.Buffered() > 0 {
		_ = bw.Flush()
	}
	// Unblock the reader and wait for it: the conn is single-owner
	// again when runConn returns.
	conn.Close()
	<-readerDone
}

// nextFrame blocks until a frame is writable (queue non-empty and
// window open), returning (nil, true) when the caller should flush
// instead (wantFlush set and nothing ready), and (nil, false) when
// the connection or stream is done.
func (s *Stream) nextFrame(wantFlush bool) (*pending, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed || s.broken {
			return nil, false
		}
		if len(s.queue) > 0 && len(s.unacked)+len(s.calls) < s.cfg.Window {
			p := s.queue[0]
			s.queue = s.queue[1:]
			switch p.typ {
			case FrameData:
				s.unacked[p.seq] = p
			case FrameReq:
				s.calls[p.seq] = p
			}
			s.cond.Broadcast() // queue space freed
			return p, true
		}
		if wantFlush {
			return nil, true
		}
		s.cond.Wait()
	}
}

// readLoop consumes ack and resp frames until the connection fails.
func (s *Stream) readLoop(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		f, n, err := ReadFrame(br, s.cfg.MaxPayload)
		if err != nil {
			s.markBroken()
			return
		}
		s.cfg.Metrics.received(n)
		switch f.Type {
		case FrameAck:
			var acked []*pending
			s.mu.Lock()
			for seq, p := range s.unacked {
				if seq <= f.Seq {
					delete(s.unacked, seq)
					if p.done != nil {
						acked = append(acked, p)
					}
				}
			}
			s.cond.Broadcast() // window slots freed
			s.mu.Unlock()
			for _, p := range acked {
				p.done(nil)
			}
		case FrameResp:
			s.mu.Lock()
			p := s.calls[f.Seq]
			delete(s.calls, f.Seq)
			s.cond.Broadcast()
			s.mu.Unlock()
			if p != nil {
				p.resp <- rpcResult{payload: f.Payload}
			}
		}
	}
}

func (s *Stream) markBroken() {
	s.mu.Lock()
	s.broken = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *Stream) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// sleep waits d or until the stream closes, reporting whether to keep
// going.
func (s *Stream) sleep(d time.Duration) bool {
	select {
	case <-s.ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// failAll resolves every pending frame with err — the stream is gone.
func (s *Stream) failAll(err error) {
	s.mu.Lock()
	var data []*pending
	var calls []*pending
	for _, p := range s.queue {
		switch p.typ {
		case FrameData:
			data = append(data, p)
		case FrameReq:
			calls = append(calls, p)
		}
	}
	s.queue = nil
	for seq, p := range s.unacked {
		delete(s.unacked, seq)
		data = append(data, p)
	}
	for seq, p := range s.calls {
		delete(s.calls, seq)
		calls = append(calls, p)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, p := range data {
		if p.done != nil {
			p.done(err)
		}
	}
	for _, p := range calls {
		p.resp <- rpcResult{err: err}
	}
}
