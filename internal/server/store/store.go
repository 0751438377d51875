// Package store is the storage layer of the vbsd runtime daemon: a
// content-addressed Virtual Bit-Stream store with an optional
// persistent disk tier, a size-bounded LRU cache for decoded
// (de-virtualized) bitstreams, and a small singleflight group that
// collapses concurrent decodes of the same task.
//
// Content addressing keys every VBS by the SHA-256 of its container
// bytes. Encoding is deterministic, so identical tasks submitted by
// different clients collapse to one stored VBS, one decode, and one
// cache entry — the property that makes repeated loads O(write).
//
// With a disk tier attached (NewTiered), the store becomes a
// two-level hierarchy: admissions are written through to the
// crash-safe internal/repo blob store, RAM eviction merely demotes
// (the disk copy remains), and Get misses fall through to disk,
// re-parse, and promote back into RAM under a singleflight guard so
// a thundering herd for one digest costs one disk read.
package store

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/repo"
)

// Digest is the SHA-256 content address of a VBS container. It is an
// alias of repo.Digest: the persistence tier and the RAM tier key
// blobs identically.
type Digest = repo.Digest

// DigestOf returns the content address of raw container bytes.
func DigestOf(data []byte) Digest { return repo.DigestOf(data) }

// ParseDigest reads the hex form produced by Digest.String.
func ParseDigest(s string) (Digest, error) { return repo.ParseDigest(s) }

// ErrNotFound reports a digest held by neither tier.
var ErrNotFound = errors.New("store: not found")

// ErrDisk wraps disk-tier I/O failures surfaced by Put: the container
// was valid but could not be persisted. Callers translating to HTTP
// must report these as server-side (5xx), not client, errors — a
// cluster gateway fails loads over to another replica on 5xx but
// treats other Put failures as deterministic 400s.
var ErrDisk = errors.New("store: disk tier")

// Entry is one stored Virtual Bit-Stream.
type Entry struct {
	// Digest is the content address of Data.
	Digest Digest
	// VBS is the parsed, validated container. It is immutable: loads
	// and decodes only read it.
	VBS *core.VBS
	// Data is the container as submitted.
	Data []byte
	// Ratio is VBS.CompressionRatio(), a walk over every entry, taken
	// once at admission.
	Ratio float64

	mem int // what the RAM tier is charged: Data plus the parsed VBS
}

func newEntry(d Digest, v *core.VBS, data []byte) *Entry {
	return &Entry{Digest: d, VBS: v, Data: data, Ratio: v.CompressionRatio(), mem: len(data) + v.MemBytes()}
}

// SizeBytes returns the container size.
func (e *Entry) SizeBytes() int { return len(e.Data) }

// TierStats counts traffic between the RAM and disk tiers.
type TierStats struct {
	// Demotions counts RAM evictions that left the blob disk-only.
	Demotions uint64 `json:"demotions"`
	// Promotions counts Get misses served by re-reading, re-parsing
	// and re-admitting a blob from disk.
	Promotions uint64 `json:"promotions"`
}

// BlobStat describes one blob in List, with its tier residency.
type BlobStat struct {
	Digest Digest
	Bytes  int64
	RAM    bool
	Disk   bool
}

// Store is a content-addressed VBS store, safe for concurrent use.
// The RAM tier is an LRU bounded by the bytes its entries keep alive —
// each container plus its parsed VBS, which is several times larger;
// when a disk tier is attached, eviction demotes instead of deleting
// and misses fall through to disk.
type Store struct {
	mu       sync.Mutex
	capBytes int
	entries  map[Digest]*list.Element
	order    *list.List // front = most recently used; holds *Entry
	bytes    int        // sum of resident entries' mem
	ratioSum float64    // sum of resident entries' Ratio
	tier     TierStats

	disk    *repo.Repo      // optional persistence tier
	promote *Flight[*Entry] // collapses concurrent disk promotions
}

// NewTiered returns a store evicting least-recently-used entries once
// the bytes they retain exceed capBytes (<= 0 = unbounded), with an
// optional persistent tier beneath the RAM LRU. disk may be nil
// (RAM-only: eviction deletes).
func NewTiered(capBytes int, disk *repo.Repo) *Store {
	return &Store{
		capBytes: capBytes,
		entries:  make(map[Digest]*list.Element),
		order:    list.New(),
		disk:     disk,
		promote:  NewFlight[*Entry](),
	}
}

// Disk returns the attached persistence tier (nil when RAM-only).
func (s *Store) Disk() *repo.Repo { return s.disk }

// Put parses and admits a VBS container, returning its entry and
// whether it was already stored in RAM. A malformed container is
// rejected without being stored. With a disk tier, the blob is
// written through to disk before the entry becomes visible, so a
// crash after Put returns cannot lose it.
func (s *Store) Put(data []byte) (ent *Entry, existed bool, err error) {
	d := DigestOf(data)
	s.mu.Lock()
	if el, ok := s.entries[d]; ok {
		s.order.MoveToFront(el)
		s.mu.Unlock()
		return el.Value.(*Entry), true, nil
	}
	s.mu.Unlock()
	v, err := core.Parse(data)
	if err != nil {
		return nil, false, err
	}
	// Warm the de-virtualization graphs off the load critical path.
	if err := v.Warm(); err != nil {
		return nil, false, err
	}
	ent = newEntry(d, v, append([]byte(nil), data...))
	// A blob can be held by disk alone (RAM eviction, boot recovery):
	// the disk tier's dedup verdict counts toward "existed" too, or a
	// re-put after demotion would misreport a fresh admission.
	diskExisted := false
	if s.disk != nil {
		de, err := s.disk.PutDigest(d, ent.Data)
		if err != nil {
			// A tombstone refusal is a policy verdict, not an I/O
			// failure: it must stay distinguishable from ErrDisk so HTTP
			// callers answer 410 Gone rather than 500 (which a gateway
			// would treat as "try another replica").
			if errors.Is(err, repo.ErrTombstoned) {
				return nil, false, err
			}
			return nil, false, fmt.Errorf("%w: %w", ErrDisk, err)
		}
		diskExisted = de
	}
	ent, ramExisted, err := s.admit(ent)
	return ent, ramExisted || diskExisted, err
}

// admit inserts a parsed entry into the RAM tier, running eviction.
func (s *Store) admit(ent *Entry) (*Entry, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[ent.Digest]; ok {
		s.order.MoveToFront(el)
		return el.Value.(*Entry), true, nil
	}
	s.entries[ent.Digest] = s.order.PushFront(ent)
	s.bytes += ent.mem
	s.ratioSum += ent.Ratio
	for s.capBytes > 0 && s.bytes > s.capBytes && s.order.Len() > 1 {
		s.removeLocked(s.order.Back())
		if s.disk != nil {
			// Write-through at Put time means the blob is already on
			// disk: eviction is a demotion, not a loss.
			s.tier.Demotions++
		}
	}
	return ent, false, nil
}

// removeLocked drops one element from the RAM tier and its share of
// the running sums. Callers hold s.mu.
func (s *Store) removeLocked(el *list.Element) {
	old := s.order.Remove(el).(*Entry)
	delete(s.entries, old.Digest)
	s.bytes -= old.mem
	s.ratioSum -= old.Ratio
	if len(s.entries) == 0 {
		s.ratioSum = 0 // shed floating-point residue
	}
}

// getRAM returns a RAM-resident entry, marking it recently used.
func (s *Store) getRAM(d Digest) (*Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[d]
	if !ok {
		return nil, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*Entry), true
}

// Get returns a stored entry by digest, marking it recently used. A
// RAM miss falls through to the disk tier: the blob is read once
// (concurrent misses for the same digest share one disk read),
// re-parsed, and promoted back into RAM. Disk errors degrade to a
// miss here; use Fetch when the cause matters.
func (s *Store) Get(d Digest) (*Entry, bool) {
	ent, err := s.Fetch(d)
	return ent, err == nil
}

// Fetch is Get with errors: ErrNotFound when neither tier holds the
// digest, otherwise the disk read/parse failure.
func (s *Store) Fetch(d Digest) (*Entry, error) {
	if ent, ok := s.getRAM(d); ok {
		return ent, nil
	}
	if s.disk == nil {
		return nil, ErrNotFound
	}
	ent, err, _ := s.promote.Do(d, func() (*Entry, error) {
		// Re-check RAM inside the flight: a caller that lost the race
		// with a finished promotion must not read the disk again.
		if ent, ok := s.getRAM(d); ok {
			return ent, nil
		}
		data, err := s.disk.Get(d)
		if err != nil {
			if errors.Is(err, repo.ErrNotFound) {
				return nil, ErrNotFound
			}
			return nil, err
		}
		v, err := core.Parse(data)
		if err != nil {
			return nil, fmt.Errorf("store: promote %s: %w", d.Short(), err)
		}
		if err := v.Warm(); err != nil {
			return nil, fmt.Errorf("store: promote %s: %w", d.Short(), err)
		}
		ent, _, _ := s.admit(newEntry(d, v, data))
		s.mu.Lock()
		s.tier.Promotions++
		s.mu.Unlock()
		return ent, nil
	})
	return ent, err
}

// GetData returns a blob's raw container bytes from whichever tier
// holds it, without parsing or promoting — the cheap path for raw
// blob downloads.
func (s *Store) GetData(d Digest) ([]byte, error) {
	if ent, ok := s.getRAM(d); ok {
		return ent.Data, nil
	}
	if s.disk == nil {
		return nil, ErrNotFound
	}
	data, err := s.disk.Get(d)
	if errors.Is(err, repo.ErrNotFound) {
		return nil, ErrNotFound
	}
	return data, err
}

// Delete removes a digest from both tiers. It returns ErrNotFound
// when neither held it; reference checking (live tasks) is the
// caller's job.
func (s *Store) Delete(d Digest) error {
	found := false
	s.mu.Lock()
	if el, ok := s.entries[d]; ok {
		s.removeLocked(el)
		found = true
	}
	s.mu.Unlock()
	if s.disk != nil {
		switch err := s.disk.Delete(d); {
		case err == nil:
			found = true
		case !errors.Is(err, repo.ErrNotFound):
			return err
		}
	}
	if !found {
		return ErrNotFound
	}
	return nil
}

// Tombstoned reports whether an unexpired delete tombstone blocks the
// digest (always false without a disk tier).
func (s *Store) Tombstoned(d Digest) bool {
	return s.disk != nil && s.disk.HasTombstone(d)
}

// Tombstone records a delete tombstone in the disk tier so automated
// re-replication cannot resurrect the digest until the TTL passes.
// Without a disk tier there is nothing durable to refuse with, so it
// is a no-op.
func (s *Store) Tombstone(d Digest, ttl time.Duration) error {
	if s.disk == nil {
		return nil
	}
	return s.disk.Tombstone(d, ttl)
}

// ClearTombstone lifts a delete tombstone (explicit user intent).
func (s *Store) ClearTombstone(d Digest) error {
	if s.disk == nil {
		return nil
	}
	return s.disk.ClearTombstone(d)
}

// Tombstones lists live tombstones from the disk tier.
func (s *Store) Tombstones() []repo.TombstoneInfo {
	if s.disk == nil {
		return nil
	}
	return s.disk.Tombstones()
}

// ExpireTombstones reclaims expired tombstone records.
func (s *Store) ExpireTombstones() (int, error) {
	if s.disk == nil {
		return 0, nil
	}
	return s.disk.ExpireTombstones()
}

// List merges both tiers into one blob listing sorted by digest.
func (s *Store) List() []BlobStat {
	byDigest := map[Digest]*BlobStat{}
	if s.disk != nil {
		for _, b := range s.disk.List() {
			byDigest[b.Digest] = &BlobStat{Digest: b.Digest, Bytes: b.Bytes, Disk: true}
		}
	}
	s.mu.Lock()
	for d, el := range s.entries {
		if b, ok := byDigest[d]; ok {
			b.RAM = true
		} else {
			byDigest[d] = &BlobStat{Digest: d, Bytes: int64(el.Value.(*Entry).SizeBytes()), RAM: true}
		}
	}
	s.mu.Unlock()
	out := make([]BlobStat, 0, len(byDigest))
	for _, b := range byDigest {
		out = append(out, *b)
	}
	// Byte order equals hex order, so compare raw digests.
	sort.Slice(out, func(a, b int) bool {
		return bytes.Compare(out[a].Digest[:], out[b].Digest[:]) < 0
	})
	return out
}

// Flush writes every RAM-resident blob missing from the disk tier
// through to it — a graceful-shutdown belt over the write-through
// braces (a no-op unless a disk write was impossible at Put time).
func (s *Store) Flush() error {
	if s.disk == nil {
		return nil
	}
	s.mu.Lock()
	ents := make([]*Entry, 0, s.order.Len())
	for el := s.order.Front(); el != nil; el = el.Next() {
		ents = append(ents, el.Value.(*Entry))
	}
	s.mu.Unlock()
	var firstErr error
	for _, ent := range ents {
		if s.disk.Has(ent.Digest) {
			continue
		}
		if _, err := s.disk.PutDigest(ent.Digest, ent.Data); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// TierStats returns RAM/disk traffic counters.
func (s *Store) TierStats() TierStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tier
}

// Len returns the number of distinct RAM-resident VBS.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Bytes returns what the RAM tier retains — containers plus their
// parsed form — the figure the capacity bounds.
func (s *Store) Bytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// MeanCompressionRatio averages VBS-size/raw-size over the
// RAM-resident tasks (the paper's Figure 4 metric; smaller is
// better). It returns 0 for an empty store. The sum is maintained by
// admission and removal, so reading it is O(1).
func (s *Store) MeanCompressionRatio() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) == 0 {
		return 0
	}
	return s.ratioSum / float64(len(s.entries))
}
