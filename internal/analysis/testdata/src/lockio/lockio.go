// Fixture for the lockio analyzer: no blocking HTTP or disk call may
// run while a sync mutex is held.
package lockio

import (
	"context"
	"net/http"
	"os"
	"sync"

	"repro/internal/repo"
	"repro/internal/server"
	"repro/internal/transport"
)

type svc struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	val string
}

func (s *svc) httpUnderLock() {
	s.mu.Lock()
	_, _ = http.Get("http://example.invalid/") // want `mutex s\.mu held across blocking call to net/http\.Get`
	s.mu.Unlock()
}

func (s *svc) diskUnderDeferredUnlock() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.ReadFile("state.json") // want `mutex s\.mu held across blocking call to os\.ReadFile`
}

func (s *svc) diskUnderReadLock() error {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return os.Remove("state.json") // want `mutex s\.rw held across blocking call to os\.Remove`
}

func (s *svc) clientUnderLock(ctx context.Context, cl *server.Client) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := cl.Health(ctx) // want `mutex s\.mu held across blocking call to server\.Client\.Health \(HTTP\)`
	return err
}

func (s *svc) repoUnderLock(r *repo.Repo) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return r.Get(repo.Digest{}) // want `mutex s\.mu held across blocking call to repo\.Repo\.Get \(disk\)`
}

func (s *svc) streamSendUnderLock(ctx context.Context, st *transport.Stream) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return st.Send(ctx, nil, false, nil) // want `mutex s\.mu held across blocking call to transport\.Stream\.Send \(stream\)`
}

func (s *svc) streamCallUnderLock(ctx context.Context, st *transport.Stream) ([]byte, error) {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return st.Call(ctx, nil, false) // want `mutex s\.rw held across blocking call to transport\.Stream\.Call \(stream\)`
}

func (s *svc) dialUnderLock(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _ = transport.Dial(ctx, "http://example.invalid") // want `mutex s\.mu held across blocking call to transport\.Dial \(network\)`
}

// connectedUnderLock: Stream.Connected only reads stream state, no
// network — fine under a lock.
func (s *svc) connectedUnderLock(st *transport.Stream) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return st.Connected()
}

// copyUnderLock is the sanctioned pattern: snapshot under the lock,
// do the I/O after unlocking.
func (s *svc) copyUnderLock() (string, error) {
	s.mu.Lock()
	v := s.val
	s.mu.Unlock()
	resp, err := http.Get("http://example.invalid/")
	if err != nil {
		return "", err
	}
	resp.Body.Close()
	return v, nil
}

// pureUnderLock calls only allowlisted os functions under the lock.
func (s *svc) pureUnderLock() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.Getenv("HOME") + s.val
}

// indexUnderLock: index-only repo.Repo accessors do not touch disk.
func (s *svc) indexUnderLock(r *repo.Repo) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return r.Has(repo.Digest{})
}

// closureUnderLock builds a closure under the lock but runs it after;
// the closure body is not charged to the section.
func (s *svc) closureUnderLock() {
	s.mu.Lock()
	fetch := func() { _, _ = http.Get("http://example.invalid/") }
	s.mu.Unlock()
	fetch()
}
