package cluster

import (
	"encoding/base64"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/repo"
	"repro/internal/server"
)

// handleBatch is the gateway's POST /tasks:batch: ops are partitioned
// by owning node, sub-batches fan out concurrently (one stream RPC or
// one HTTP POST per node instead of one per op), and per-op results
// come back in request order. Loaded blobs are then replicated over
// the streams exactly like single loads.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	defer g.observeOp("batch", time.Now())
	var req server.BatchRequest
	if !g.decodeBody(w, r, &req) {
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	// Enforce the node-side cap here, before partitioning: a sub-batch
	// can only be as large as the whole request, so no fan-out can trip
	// a node's wholesale 400 that would fail sibling ops too.
	if len(req.Ops) > server.MaxBatchOps {
		writeError(w, http.StatusBadRequest, "batch of %d ops exceeds limit %d", len(req.Ops), server.MaxBatchOps)
		return
	}
	g.transport.ObserveBatch(len(req.Ops))
	g.proxied.Add(1)

	results := make([]server.BatchResult, len(req.Ops))
	type sub struct {
		idx []int
		ops []server.BatchOp
	}
	subs := map[string]*sub{}
	assign := func(node string, i int, op server.BatchOp) {
		sb := subs[node]
		if sb == nil {
			sb = &sub{}
			subs[node] = sb
		}
		sb.idx = append(sb.idx, i)
		sb.ops = append(sb.ops, op)
	}
	// blobs keeps each load's decoded container and its digest (hashed
	// once, for routing and replication both); nodeOf records where an
	// op was routed.
	type blob struct {
		data   []byte
		digest repo.Digest
	}
	blobs := map[int]blob{}
	nodeOf := map[int]string{}

	for i, op := range req.Ops {
		kind := op.Op
		if kind == "" && op.VBS != "" {
			kind = "load"
		}
		switch kind {
		case "load":
			data, err := base64.StdEncoding.DecodeString(op.VBS)
			if err != nil {
				results[i] = server.BatchResult{Status: http.StatusBadRequest, Error: fmt.Sprintf("bad vbs base64: %v", err)}
				continue
			}
			digest := repo.DigestOf(data)
			var target string
			if op.Fabric != nil {
				// A pinned fleet fabric id names its node outright.
				node, _, local, ok := g.fabricOf(*op.Fabric)
				if !ok {
					results[i] = server.BatchResult{Status: http.StatusBadRequest, Error: fmt.Sprintf("fabric %d not in the fleet", *op.Fabric)}
					continue
				}
				lf := local
				op.Fabric = &lf
				target = node
			} else {
				own := g.owners(digest)
				if len(own) == 0 {
					results[i] = server.BatchResult{Status: http.StatusServiceUnavailable, Error: "cluster: no node available for load"}
					continue
				}
				target = own[0]
			}
			blobs[i] = blob{data, digest}
			nodeOf[i] = target
			assign(target, i, op)
		case "get":
			d, err := repo.ParseDigest(op.Digest)
			if err != nil {
				results[i] = server.BatchResult{Status: http.StatusBadRequest, Error: err.Error()}
				continue
			}
			own := g.owners(d)
			if len(own) == 0 {
				results[i] = server.BatchResult{Status: http.StatusServiceUnavailable, Error: "cluster: no node available for get"}
				continue
			}
			nodeOf[i] = own[0]
			assign(own[0], i, op)
		case "unload":
			node, _, ok := g.reg.ByInstance(server.InstanceOf(op.ID))
			if !ok {
				results[i] = server.BatchResult{Status: http.StatusNotFound, Error: fmt.Sprintf("task %d not loaded", op.ID)}
				continue
			}
			assign(node, i, op)
		default:
			results[i] = server.BatchResult{Status: http.StatusBadRequest, Error: fmt.Sprintf("unknown batch op %q", op.Op)}
		}
	}

	var wg sync.WaitGroup
	for node, sb := range subs {
		wg.Add(1)
		go func(node string, sb *sub) {
			defer wg.Done()
			resp, err := g.nodeBatch(r.Context(), node, server.BatchRequest{Ops: sb.ops})
			if err != nil {
				status := server.StatusCode(err)
				if status == 0 {
					// Transport failure (node down, stream cut mid-call):
					// the whole sub-batch outcome is unknown.
					status = http.StatusServiceUnavailable
				}
				for _, i := range sb.idx {
					results[i] = server.BatchResult{Status: status, Error: server.ErrorMessage(err)}
				}
				return
			}
			for k, i := range sb.idx {
				if k < len(resp.Results) {
					results[i] = resp.Results[k]
				} else {
					results[i] = server.BatchResult{Status: http.StatusBadGateway, Error: "cluster: node returned a short batch"}
				}
			}
		}(node, sb)
	}
	wg.Wait()

	// Post-pass per op: name placed fabrics by fleet fabric id, verify
	// relayed get payloads against their content address, and collect
	// each distinct admitted blob for replication.
	type replJob struct {
		blob
		holder string
	}
	repl := map[repo.Digest]replJob{}
	for i := range results {
		if results[i].Status == http.StatusOK && results[i].VBS != "" {
			data, err := base64.StdEncoding.DecodeString(results[i].VBS)
			d, perr := repo.ParseDigest(req.Ops[i].Digest)
			if err != nil || perr != nil || repo.DigestOf(data) != d {
				results[i] = server.BatchResult{Status: http.StatusBadGateway,
					Error: fmt.Sprintf("cluster: node %s served corrupt bytes", nodeOf[i])}
				continue
			}
			g.scheduleRepair(d, data, nodeOf[i])
			continue
		}
		b, isLoad := blobs[i]
		if !isLoad || results[i].Status != http.StatusCreated || results[i].Load == nil {
			continue
		}
		lr := results[i].Load
		node := nodeOf[i]
		inst := server.InstanceOf(lr.ID)
		g.reg.Learn(node, inst)
		lr.Fabric = fabricID(inst, lr.Fabric)
		if _, seen := repl[b.digest]; !seen {
			repl[b.digest] = replJob{blob: b, holder: node}
		}
	}
	for d, job := range repl {
		g.replicate(r.Context(), d, job.data, g.Ring().Lookup(d, g.replicas), job.holder)
	}
	writeJSON(w, http.StatusOK, server.BatchResponse{Results: results})
}
