package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoServer accepts stream connections on a raw TCP listener and
// serves them with the given handlers until closed.
type echoServer struct {
	ln net.Listener
	wg sync.WaitGroup

	mu    sync.Mutex
	conns []net.Conn
}

func newEchoServer(t *testing.T, h Handlers, cfg Config) *echoServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &echoServer{ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				_ = Serve(conn, h, cfg)
				conn.Close()
			}()
		}
	}()
	t.Cleanup(s.close)
	return s
}

func (s *echoServer) addr() string { return s.ln.Addr().String() }

// dropConns severs every live connection without stopping the
// listener — the mid-stream kill.
func (s *echoServer) dropConns() {
	s.mu.Lock()
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (s *echoServer) close() {
	s.ln.Close()
	s.dropConns()
	s.wg.Wait()
}

func tcpDialer(addr string) Dialer {
	return func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
}

func testConfig() Config {
	return Config{
		Window:      8,
		Compress:    true,
		DialTimeout: 2 * time.Second,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	}
}

// TestStreamSendAck proves the data path end to end: every sent
// message arrives intact and every done callback fires on ack.
func TestStreamSendAck(t *testing.T) {
	var mu sync.Mutex
	got := map[string]int{}
	srv := newEchoServer(t, Handlers{
		Data: func(msg []byte) error {
			mu.Lock()
			got[string(msg)]++
			mu.Unlock()
			return nil
		},
	}, testConfig())

	st := Open(tcpDialer(srv.addr()), testConfig())
	defer st.Close()

	const n = 100
	var acked atomic.Int64
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		msg := []byte{byte(i), byte(i >> 8), 'm'}
		if err := st.Send(ctx, msg, i%2 == 0, func(err error) {
			if err == nil {
				acked.Add(1)
			}
		}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return acked.Load() == n })
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("receiver saw %d distinct messages, want %d", len(got), n)
	}
}

// TestStreamCall proves RPC multiplexing: concurrent calls get their
// own responses back.
func TestStreamCall(t *testing.T) {
	srv := newEchoServer(t, Handlers{
		Call: func(msg []byte) ([]byte, bool) {
			// Echo the payload back inside a result envelope.
			return EncodeResult(200, msg), false
		},
	}, testConfig())

	st := Open(tcpDialer(srv.addr()), testConfig())
	defer st.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := make([]byte, 8)
			binary.BigEndian.PutUint64(msg, uint64(i))
			resp, err := st.Call(ctx, msg, false)
			if err != nil {
				errs <- err
				return
			}
			status, body, err := DecodeResult(resp)
			if err != nil || status != 200 || binary.BigEndian.Uint64(body) != uint64(i) {
				errs <- errors.New("response mismatch")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestStreamReconnectResends is the healing property the chaos
// nodekill recipe depends on: sever the connection mid-stream and
// every unacked data frame must be retransmitted and acked after the
// automatic reconnect.
func TestStreamReconnectResends(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]bool{}
	srv := newEchoServer(t, Handlers{
		Data: func(msg []byte) error {
			mu.Lock()
			seen[string(msg)] = true
			mu.Unlock()
			return nil
		},
	}, testConfig())

	m := &Metrics{}
	cfg := testConfig()
	cfg.Metrics = m
	st := Open(tcpDialer(srv.addr()), cfg)
	defer st.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	var acked atomic.Int64
	send := func(tag byte, n int) {
		for i := 0; i < n; i++ {
			msg := []byte{tag, byte(i), byte(i >> 8)}
			if err := st.Send(ctx, msg, false, func(err error) {
				if err == nil {
					acked.Add(1)
				}
			}); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
	}

	send('a', 20)
	waitFor(t, 5*time.Second, func() bool { return acked.Load() >= 10 })
	srv.dropConns() // mid-stream kill
	send('b', 20)   // enqueued while down or reconnecting
	waitFor(t, 10*time.Second, func() bool { return acked.Load() == 40 })

	mu.Lock()
	total := len(seen)
	mu.Unlock()
	if total != 40 {
		t.Fatalf("receiver saw %d distinct messages, want 40", total)
	}
	if m.reconnects.Load() == 0 {
		t.Fatal("no reconnect recorded after severed connection")
	}
}

// TestStreamCallDisconnected pins the non-idempotence contract: an
// RPC in flight across a disconnect fails with ErrDisconnected
// instead of silently replaying.
func TestStreamCallDisconnected(t *testing.T) {
	block := make(chan struct{})
	var once sync.Once
	srv := newEchoServer(t, Handlers{
		Call: func(msg []byte) ([]byte, bool) {
			once.Do(func() { <-block })
			return EncodeResult(200, nil), false
		},
	}, testConfig())
	defer close(block)

	st := Open(tcpDialer(srv.addr()), testConfig())
	defer st.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := st.Call(ctx, []byte{MsgPing}, false)
		done <- err
	}()
	// Wait until the request reaches the (blocked) handler, then cut.
	time.Sleep(100 * time.Millisecond)
	srv.dropConns()
	select {
	case err := <-done:
		if !errors.Is(err, ErrDisconnected) {
			t.Fatalf("got %v, want ErrDisconnected", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call did not fail after disconnect")
	}
}

// TestStreamCallExpiredInFlight pins the other half of the
// non-idempotence contract: when the caller's ctx expires after the
// request reached the wire but before a response, the error must mark
// the outcome unknown (ErrDisconnected) so callers with an HTTP
// fallback do not replay the request — on top of the ctx error itself.
func TestStreamCallExpiredInFlight(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	srv := newEchoServer(t, Handlers{
		Call: func(msg []byte) ([]byte, bool) {
			<-block // hold the RPC open past the caller's deadline
			return EncodeResult(200, nil), false
		},
	}, testConfig())

	st := Open(tcpDialer(srv.addr()), testConfig())
	defer st.Close()

	// Make sure the connection is up so the request is actually written.
	waitFor(t, 5*time.Second, st.Connected)

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	_, err := st.Call(ctx, []byte{MsgPing}, false)
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("got %v, want ErrDisconnected for an in-flight expiry", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want the ctx error preserved", err)
	}
}

// TestStreamCallExpiredQueued is the safe counterpart: a call whose
// ctx expires while it still sits in the queue (the stream never
// connected) was never written, so the error must NOT carry
// ErrDisconnected — a fallback retry is allowed.
func TestStreamCallExpiredQueued(t *testing.T) {
	// A dialer that never connects keeps everything queued.
	st := Open(func(ctx context.Context) (net.Conn, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}, testConfig())
	defer st.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := st.Call(ctx, []byte{MsgPing}, false)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if errors.Is(err, ErrDisconnected) {
		t.Fatalf("queued call marked in-flight: %v", err)
	}
}

// TestStreamCloseFailsPending ensures Close resolves everything.
func TestStreamCloseFailsPending(t *testing.T) {
	// A dialer that never connects: everything stays queued.
	st := Open(func(ctx context.Context) (net.Conn, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}, testConfig())

	ctx := context.Background()
	var failed atomic.Int64
	for i := 0; i < 5; i++ {
		if err := st.Send(ctx, []byte{byte(i)}, false, func(err error) {
			if err != nil {
				failed.Add(1)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	callErr := make(chan error, 1)
	go func() {
		_, err := st.Call(ctx, []byte{MsgPing}, false)
		callErr <- err
	}()
	time.Sleep(50 * time.Millisecond)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return failed.Load() == 5 })
	select {
	case err := <-callErr:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("call got %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call not failed by Close")
	}
	if err := st.Send(ctx, []byte("late"), false, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: got %v, want ErrClosed", err)
	}
}

// TestUpgradeHandshake drives Dial against a real HTTP server that
// hijacks into Serve — the exact path the daemons use.
func TestUpgradeHandshake(t *testing.T) {
	var pings atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+DefaultPath, func(w http.ResponseWriter, r *http.Request) {
		conn, err := Upgrade(w, r)
		if err != nil {
			return
		}
		defer conn.Close()
		_ = Serve(conn, Handlers{
			Call: func(msg []byte) ([]byte, bool) {
				if MsgKind(msg) == MsgPing {
					pings.Add(1)
					return EncodeResult(200, nil), false
				}
				return EncodeResult(http.StatusBadRequest, nil), false
			},
		}, testConfig())
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()

	st := Open(func(ctx context.Context) (net.Conn, error) {
		return Dial(ctx, hs.URL)
	}, testConfig())
	defer st.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := st.Call(ctx, []byte{MsgPing}, false)
	if err != nil {
		t.Fatalf("ping over upgraded stream: %v", err)
	}
	if status, _, err := DecodeResult(res); err != nil || status != 200 {
		t.Fatalf("ping over upgraded stream: status %d, %v", status, err)
	}
	if pings.Load() != 1 {
		t.Fatalf("server saw %d pings, want 1", pings.Load())
	}

	// A plain GET without the Upgrade header must be refused cleanly.
	resp, err := http.Get(hs.URL + DefaultPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired {
		t.Fatalf("plain GET got %d, want 426", resp.StatusCode)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
