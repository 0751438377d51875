// Package repo is the persistence tier of the runtime manager: a
// crash-safe, content-addressed on-disk store for Virtual Bit-Stream
// containers. The design flow spends minutes producing a VBS; this
// package makes sure a daemon restart or RAM-cache eviction never
// costs one.
//
// # Disk layout
//
// Blobs are sharded by the first two digest bytes so no directory
// grows unbounded:
//
//	<dir>/aa/bb/<digest>.vbs   blob (aa, bb = first two digest bytes)
//	<dir>/tmp/                 staging area for in-flight writes
//	<dir>/quarantine/          blobs that failed verification
//
// Every blob file carries a small self-describing header before the
// payload:
//
//	magic   "VBR1"   4 bytes
//	version uint8    currently 1
//	crc32c  uint32   Castagnoli CRC of the payload, big-endian
//	length  uint32   payload bytes, big-endian
//
// # Crash safety
//
// Writes are staged in tmp/, fsynced, then renamed into place and the
// shard directory fsynced (the classic temp-file → fsync → rename
// sequence), so a blob is either fully present or absent — never
// half-written. Reads re-verify both the CRC and the SHA-256 content
// address against the file name. Open runs a recovery scan that
// indexes valid blobs, moves corrupt ones to quarantine/, removes
// stale temp files, and reports the totals.
package repo

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Digest is the SHA-256 content address of a VBS container.
type Digest [sha256.Size]byte

// DigestOf returns the content address of raw container bytes.
func DigestOf(data []byte) Digest { return sha256.Sum256(data) }

// String returns the full lowercase hex form.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Short returns a 12-hex-digit prefix for logs and task listings.
func (d Digest) Short() string { return d.String()[:12] }

// ParseDigest reads the hex form produced by String.
func ParseDigest(s string) (Digest, error) {
	var d Digest
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != sha256.Size {
		return d, fmt.Errorf("repo: bad digest %q", s)
	}
	copy(d[:], b)
	return d, nil
}

const (
	blobMagic   = "VBR1"
	blobVersion = 1
	headerSize  = 4 + 1 + 4 + 4 // magic + version + crc32c + length
	blobExt     = ".vbs"

	tmpDir        = "tmp"
	quarantineDir = "quarantine"
)

// castagnoli is the CRC polynomial used for payload checksums (the
// same choice as aistore and most modern object stores: hardware
// accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrNotFound reports a digest the repository does not hold.
var ErrNotFound = errors.New("repo: blob not found")

// ErrReadOnly reports a mutation attempted on a read-only repository.
var ErrReadOnly = errors.New("repo: read-only")

// ErrCorrupt wraps verification failures (bad magic, CRC or digest
// mismatch, truncation). A corrupt blob is quarantined, never served.
var ErrCorrupt = errors.New("repo: corrupt blob")

// Options tunes Open.
type Options struct {
	// ReadOnly opens the repository for inspection only: the recovery
	// scan reports corruption without quarantining, and Put, Delete and
	// GC are refused. Used by stat/verify tooling over a live data dir.
	ReadOnly bool
}

// ScanReport summarizes the recovery scan Open runs.
type ScanReport struct {
	// Scanned counts blob files examined.
	Scanned int `json:"scanned"`
	// Recovered counts valid blobs indexed from disk.
	Recovered int `json:"recovered"`
	// Quarantined counts corrupt blobs moved aside (or, read-only,
	// merely detected).
	Quarantined int `json:"quarantined"`
	// TempRemoved counts stale in-flight temp files deleted.
	TempRemoved int `json:"temp_removed"`
	// Tombstones counts live delete tombstones loaded from disk.
	Tombstones int `json:"tombstones"`
	// Bytes is the total payload bytes of recovered blobs.
	Bytes int64 `json:"bytes"`
}

// Stats is a point-in-time snapshot of the repository.
type Stats struct {
	// Blobs and Bytes describe the current index.
	Blobs int   `json:"blobs"`
	Bytes int64 `json:"bytes"`
	// Reads and Writes count payloads served and blobs persisted since
	// Open.
	Reads  uint64 `json:"reads"`
	Writes uint64 `json:"writes"`
	// Recovered and Quarantined accumulate the Open scan plus any
	// later verification failures.
	Recovered   int `json:"recovered"`
	Quarantined int `json:"quarantined"`
	// WriteErrors and ReadErrors count failed Puts and failed
	// non-corrupt Gets (corrupt reads count under Quarantined),
	// including failures forced through the fault-injection seam.
	WriteErrors uint64 `json:"write_errors"`
	ReadErrors  uint64 `json:"read_errors"`
	// Tombstones counts live delete tombstones (see tombstone.go).
	Tombstones int `json:"tombstones"`
}

// BlobStat describes one stored blob in List.
type BlobStat struct {
	Digest Digest
	// Bytes is the payload (container) size, header excluded.
	Bytes int64
}

// Repo is a content-addressed blob store rooted at one directory,
// safe for concurrent use.
type Repo struct {
	dir string
	ro  bool

	mu    sync.RWMutex
	index map[Digest]int64 // payload bytes per blob
	tombs map[Digest]int64 // unix expiry (seconds) per tombstoned digest
	bytes int64

	scan        ScanReport
	reads       uint64
	writes      uint64
	writeErrors uint64
	readErrors  uint64
	quarantined int // scan + runtime verification failures

	// faults is the injectable I/O fault seam (see Faults); nil means
	// no faults armed — the only state real deployments ever see.
	faults atomic.Pointer[Faults]
}

// Open roots a repository at dir, creating the directory tree when
// absent (unless read-only) and running the recovery scan.
func Open(dir string, opts Options) (*Repo, error) {
	r := &Repo{
		dir:   dir,
		ro:    opts.ReadOnly,
		index: make(map[Digest]int64),
		tombs: make(map[Digest]int64),
	}
	if r.ro {
		// A read-only open of a path that is not a directory must fail
		// loudly: "verified 0 blobs OK" on a typo'd -dir would let a
		// wrong path pass inspection of a repository that was never
		// opened.
		info, err := os.Stat(dir)
		if err != nil {
			return nil, fmt.Errorf("repo: %w", err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("repo: %s is not a directory", dir)
		}
	} else {
		for _, sub := range []string{"", tmpDir, quarantineDir, tombstoneDir} {
			if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
				return nil, fmt.Errorf("repo: %w", err)
			}
		}
	}
	if err := r.recover(); err != nil {
		return nil, err
	}
	r.loadTombstones()
	return r, nil
}

// ScanReport returns the recovery scan Open performed.
func (r *Repo) ScanReport() ScanReport {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.scan
}

// blobPath returns <dir>/aa/bb/<digest>.vbs.
func (r *Repo) blobPath(d Digest) string {
	return BlobPath(r.dir, d)
}

// BlobPath returns the on-disk path of a digest's blob file under a
// repository root — <dir>/aa/bb/<digest>.vbs. Exported for tooling
// (e.g. chaos blob corruption) that must name a repository file
// without opening the repository.
func BlobPath(dir string, d Digest) string {
	hx := d.String()
	return filepath.Join(dir, hx[:2], hx[2:4], hx+blobExt)
}

// recover walks the shard tree, indexing valid blobs, quarantining
// corrupt ones and clearing stale temp files.
func (r *Repo) recover() error {
	// Stale temp files are debris from writes interrupted mid-stage;
	// the rename never happened, so they reference nothing.
	if !r.ro {
		if ents, err := os.ReadDir(filepath.Join(r.dir, tmpDir)); err == nil {
			for _, e := range ents {
				if os.Remove(filepath.Join(r.dir, tmpDir, e.Name())) == nil {
					r.scan.TempRemoved++
				}
			}
		}
	}
	root := os.DirFS(r.dir)
	err := fs.WalkDir(root, ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == tmpDir || path == quarantineDir || path == tombstoneDir {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, blobExt) {
			return nil
		}
		r.scan.Scanned++
		full := filepath.Join(r.dir, filepath.FromSlash(path))
		dg, payload, verr := readBlob(full)
		if verr != nil {
			r.scan.Quarantined++
			r.quarantined++
			if !r.ro {
				r.quarantine(full)
			}
			return nil
		}
		// A valid blob in the wrong shard path is still corrupt in the
		// content-addressed sense: its name would never be looked up.
		if full != r.blobPath(dg) {
			r.scan.Quarantined++
			r.quarantined++
			if !r.ro {
				r.quarantine(full)
			}
			return nil
		}
		r.index[dg] = int64(len(payload))
		r.bytes += int64(len(payload))
		r.scan.Recovered++
		r.scan.Bytes += int64(len(payload))
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("repo: recovery scan: %w", err)
	}
	return nil
}

// quarantine moves a failed blob aside, best-effort: recovery must
// not abort because one bad file also resists moving.
func (r *Repo) quarantine(path string) {
	dst := filepath.Join(r.dir, quarantineDir, filepath.Base(path))
	if err := os.Rename(path, dst); err != nil {
		_ = os.Remove(path)
	}
}

// readBlob reads and verifies one blob file, returning the content
// address computed from the payload (the caller compares it against
// the file name / requested digest).
func readBlob(path string) (Digest, []byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Digest{}, nil, err
	}
	return verifyBlob(path, raw)
}

// readBlobFaulty is readBlob with the fault-injection seam applied to
// the bytes just read — the Get path. The recovery scan deliberately
// bypasses it: injected faults model a rotting serve path, not a
// different disk at boot.
func (r *Repo) readBlobFaulty(path string) (Digest, []byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Digest{}, nil, err
	}
	if f := r.faults.Load(); f != nil {
		if f.FailReads {
			return Digest{}, nil, fmt.Errorf("repo: read %s: %w", filepath.Base(path), ErrInjected)
		}
		if f.ShortReads && len(raw) > headerSize {
			raw = raw[:headerSize+(len(raw)-headerSize)/2]
		}
		if f.CorruptReads && len(raw) > headerSize {
			raw[len(raw)-1] ^= 0xff
		}
	}
	return verifyBlob(path, raw)
}

// verifyBlob parses raw blob-file bytes, checking header, length and
// CRC, and returns the payload's content address.
func verifyBlob(path string, raw []byte) (Digest, []byte, error) {
	var d Digest
	if len(raw) < headerSize || string(raw[:4]) != blobMagic {
		return d, nil, fmt.Errorf("%w: bad magic in %s", ErrCorrupt, filepath.Base(path))
	}
	if raw[4] != blobVersion {
		return d, nil, fmt.Errorf("%w: unsupported version %d in %s", ErrCorrupt, raw[4], filepath.Base(path))
	}
	crc := binary.BigEndian.Uint32(raw[5:])
	length := binary.BigEndian.Uint32(raw[9:])
	payload := raw[headerSize:]
	if int(length) != len(payload) {
		return d, nil, fmt.Errorf("%w: %s has %d payload bytes, header says %d",
			ErrCorrupt, filepath.Base(path), len(payload), length)
	}
	if got := crc32.Checksum(payload, castagnoli); got != crc {
		return d, nil, fmt.Errorf("%w: CRC mismatch in %s", ErrCorrupt, filepath.Base(path))
	}
	return DigestOf(payload), payload, nil
}

// Put persists a container, computing its content address. It returns
// the digest and whether the blob was already stored.
func (r *Repo) Put(data []byte) (Digest, bool, error) {
	d := DigestOf(data)
	existed, err := r.PutDigest(d, data)
	return d, existed, err
}

// PutDigest persists a container under a digest the caller has
// already computed (it must be DigestOf(data); reads verify it). The
// write is atomic: temp file → fsync → rename → fsync directory.
func (r *Repo) PutDigest(d Digest, data []byte) (existed bool, err error) {
	existed, err = r.putDigest(d, data)
	if err != nil && !errors.Is(err, ErrReadOnly) && !errors.Is(err, ErrTombstoned) {
		r.mu.Lock()
		r.writeErrors++
		r.mu.Unlock()
	}
	return existed, err
}

func (r *Repo) putDigest(d Digest, data []byte) (existed bool, err error) {
	if r.ro {
		return false, ErrReadOnly
	}
	r.mu.RLock()
	_, ok := r.index[d]
	r.mu.RUnlock()
	if ok {
		return true, nil
	}
	if r.HasTombstone(d) {
		return false, fmt.Errorf("repo: put %s: %w", d.Short(), ErrTombstoned)
	}
	if f := r.faults.Load(); f != nil && f.FailPuts {
		return false, fmt.Errorf("repo: write %s: %w", d.Short(), ErrInjected)
	}

	final := r.blobPath(d)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return false, fmt.Errorf("repo: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Join(r.dir, tmpDir), d.Short()+".*")
	if err != nil {
		return false, fmt.Errorf("repo: %w", err)
	}
	defer func() {
		if err != nil {
			_ = os.Remove(tmp.Name())
		}
	}()
	header := make([]byte, headerSize)
	copy(header, blobMagic)
	header[4] = blobVersion
	binary.BigEndian.PutUint32(header[5:], crc32.Checksum(data, castagnoli))
	binary.BigEndian.PutUint32(header[9:], uint32(len(data)))
	if _, err = tmp.Write(header); err == nil {
		_, err = tmp.Write(data)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return false, fmt.Errorf("repo: write %s: %w", d.Short(), err)
	}
	if err = os.Rename(tmp.Name(), final); err != nil {
		return false, fmt.Errorf("repo: commit %s: %w", d.Short(), err)
	}
	syncDir(filepath.Dir(final))

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.index[d]; ok {
		// A concurrent Put of the same digest renamed an identical blob
		// over ours; content addressing makes that harmless.
		return true, nil
	}
	r.index[d] = int64(len(data))
	r.bytes += int64(len(data))
	r.writes++
	return false, nil
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss. Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = f.Sync()
	_ = f.Close()
}

// Get returns a blob's payload, re-verifying the CRC and content
// address. A blob that fails verification is quarantined and reported
// as corrupt — never served.
func (r *Repo) Get(d Digest) ([]byte, error) {
	r.mu.RLock()
	_, ok := r.index[d]
	r.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	path := r.blobPath(d)
	got, payload, err := r.readBlobFaulty(path)
	if err == nil && got != d {
		err = fmt.Errorf("%w: content is %s, expected %s", ErrCorrupt, got.Short(), d.Short())
	}
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			r.dropCorrupt(d, path)
		} else {
			r.mu.Lock()
			r.readErrors++
			r.mu.Unlock()
		}
		return nil, err
	}
	r.mu.Lock()
	r.reads++
	r.mu.Unlock()
	return payload, nil
}

// dropCorrupt removes a blob that failed a read-time verification
// from the index and (when writable) moves the file to quarantine.
func (r *Repo) dropCorrupt(d Digest, path string) {
	r.mu.Lock()
	if n, ok := r.index[d]; ok {
		delete(r.index, d)
		r.bytes -= n
	}
	r.quarantined++
	r.mu.Unlock()
	if !r.ro {
		r.quarantine(path)
	}
}

// Has reports whether a digest is indexed.
func (r *Repo) Has(d Digest) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.index[d]
	return ok
}

// Delete removes a blob from disk and the index.
func (r *Repo) Delete(d Digest) error {
	if r.ro {
		return ErrReadOnly
	}
	r.mu.Lock()
	n, ok := r.index[d]
	if ok {
		delete(r.index, d)
		r.bytes -= n
	}
	r.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	if err := os.Remove(r.blobPath(d)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("repo: %w", err)
	}
	return nil
}

// Len returns the number of indexed blobs.
func (r *Repo) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.index)
}

// Bytes returns the total indexed payload bytes.
func (r *Repo) Bytes() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.bytes
}

// List returns every indexed blob, sorted by digest for stable
// output.
func (r *Repo) List() []BlobStat {
	r.mu.RLock()
	out := make([]BlobStat, 0, len(r.index))
	for d, n := range r.index {
		out = append(out, BlobStat{Digest: d, Bytes: n})
	}
	r.mu.RUnlock()
	// Byte order equals hex order, so compare raw digests.
	sort.Slice(out, func(a, b int) bool {
		return bytes.Compare(out[a].Digest[:], out[b].Digest[:]) < 0
	})
	return out
}

// Stats returns current counters.
func (r *Repo) Stats() Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return Stats{
		Blobs:       len(r.index),
		Bytes:       r.bytes,
		Reads:       r.reads,
		Writes:      r.writes,
		Recovered:   r.scan.Recovered,
		Quarantined: r.quarantined,
		WriteErrors: r.writeErrors,
		ReadErrors:  r.readErrors,
		Tombstones:  len(r.tombs),
	}
}

// VerifyReport summarizes a full re-verification pass.
type VerifyReport struct {
	Checked int
	Bytes   int64
	// Corrupt lists digests that failed; in a writable repository they
	// have been quarantined.
	Corrupt []Digest
}

// Verify re-reads every indexed blob, checking CRC and content
// address. Corrupt blobs are quarantined (unless read-only) and
// reported.
func (r *Repo) Verify() VerifyReport {
	rep, _ := r.VerifyCtx(context.Background())
	return rep
}

// VerifyCtx is Verify bounded by ctx, checked between blobs — the
// scrub job runs it under an abortable job context, so a fleet-wide
// verification can be cancelled without waiting out the disk. The
// partial report covers the blobs checked before cancellation.
func (r *Repo) VerifyCtx(ctx context.Context) (VerifyReport, error) {
	var rep VerifyReport
	for _, b := range r.List() {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		rep.Checked++
		if _, err := r.Get(b.Digest); err != nil {
			rep.Corrupt = append(rep.Corrupt, b.Digest)
			continue
		}
		rep.Bytes += b.Bytes
	}
	return rep, nil
}

// GCReport summarizes a GC pass.
type GCReport struct {
	// QuarantineRemoved / TempRemoved count files deleted from the two
	// holding areas; BytesReclaimed totals their sizes.
	QuarantineRemoved int
	TempRemoved       int
	BytesReclaimed    int64
}

// GC purges the quarantine and temp holding areas. Indexed blobs are
// never touched: a content-addressed store has no unreferenced live
// objects to collect.
func (r *Repo) GC() (GCReport, error) {
	if r.ro {
		return GCReport{}, ErrReadOnly
	}
	var rep GCReport
	for _, sub := range []string{quarantineDir, tmpDir} {
		ents, err := os.ReadDir(filepath.Join(r.dir, sub))
		if err != nil {
			continue
		}
		for _, e := range ents {
			full := filepath.Join(r.dir, sub, e.Name())
			if info, err := e.Info(); err == nil {
				rep.BytesReclaimed += info.Size()
			}
			if os.Remove(full) == nil {
				if sub == quarantineDir {
					rep.QuarantineRemoved++
				} else {
					rep.TempRemoved++
				}
			}
		}
	}
	return rep, nil
}
