package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/jobs"
)

// defineJobs registers the node's background job kinds. Called once
// from New, before the metrics registry snapshots the kind list.
func (s *Server) defineJobs() {
	s.jobs.Define(jobs.Spec{Kind: "tombstone-sweep", Run: func(ctx context.Context, j *jobs.Job) error {
		n, err := s.store.ExpireTombstones()
		j.Set("swept", int64(n))
		return err
	}})
	// Scrub re-reads every disk blob (abortable between blobs), then
	// purges the quarantine/temp holding areas. Exclusive: two scrubs
	// would double every disk read for no extra coverage.
	s.jobs.Define(jobs.Spec{Kind: "scrub", Exclusive: true, Run: s.runScrub})
	// Warm streams stored blobs through the decode path so a restarted
	// daemon serves its first loads at cache-hit latency.
	s.jobs.Define(jobs.Spec{Kind: "warm", Exclusive: true, Run: s.runWarm})
}

func (s *Server) runScrub(ctx context.Context, j *jobs.Job) error {
	disk := s.store.Disk()
	if disk == nil {
		return errors.New("scrub needs a disk tier (run vbsd with -data-dir)")
	}
	rep, err := disk.VerifyCtx(ctx)
	j.Set("checked", int64(rep.Checked))
	j.Set("verified_bytes", rep.Bytes)
	j.Set("corrupt", int64(len(rep.Corrupt)))
	if err != nil {
		return err
	}
	gc, err := disk.GC()
	if err != nil {
		return err
	}
	j.Set("quarantine_removed", int64(gc.QuarantineRemoved))
	j.Set("temp_removed", int64(gc.TempRemoved))
	j.Set("bytes_reclaimed", gc.BytesReclaimed)
	return nil
}

// runWarm decodes up to "max" stored blobs (0 = all) into the
// decoded-bitstream cache, promoting disk-resident ones.
func (s *Server) runWarm(ctx context.Context, j *jobs.Job) error {
	max := 0
	if v := j.Arg("max"); v != "" {
		m, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("bad max argument %q: %w", v, err)
		}
		max = m
	}
	warmed := 0
	for _, b := range s.store.List() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if max > 0 && warmed >= max {
			break
		}
		ent, err := s.store.Fetch(b.Digest)
		if err != nil {
			return err
		}
		if _, _, err := s.getOrDecode(ent); err != nil {
			return err
		}
		warmed++
		j.Add("warmed", 1)
	}
	return nil
}

// Jobs exposes the node's job table — vbsd uses it for periodic
// housekeeping and graceful shutdown.
func (s *Server) Jobs() *jobs.Table { return s.jobs }

// ── HTTP surface ───────────────────────────────────────────────────

// WriteJobStartError maps a Table.Start refusal onto the API: unknown
// kind is the caller's mistake (400, listing the valid kinds),
// an exclusive collision is a conflict (409). Shared with the cluster
// gateway so both surfaces refuse identically.
func WriteJobStartError(w http.ResponseWriter, err error, kinds []string) {
	switch {
	case errors.Is(err, jobs.ErrUnknownKind):
		writeError(w, http.StatusBadRequest, "%v (kinds: %s)", err, strings.Join(kinds, ", "))
	case errors.Is(err, jobs.ErrExclusive):
		writeError(w, http.StatusConflict, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) handleStartJob(w http.ResponseWriter, r *http.Request) {
	var req StartJobRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	j, err := s.jobs.Start(req.Kind, req.Args)
	if err != nil {
		WriteJobStartError(w, err, s.jobs.Kinds())
		return
	}
	writeJSON(w, http.StatusAccepted, j.Snapshot())
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.jobs.List())
}

// jobFromPath resolves {id} or replies 404/400.
func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job id %q", r.PathValue("id"))
		return nil, false
	}
	j, ok := s.jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "job %d not found", id)
		return nil, false
	}
	return j, true
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

// handleAbortJob signals the abort and returns the job's snapshot
// immediately — the runner winds down asynchronously; poll
// GET /jobs/{id} for the terminal state.
func (s *Server) handleAbortJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	s.jobs.Abort(j.ID())
	writeJSON(w, http.StatusOK, j.Snapshot())
}
