package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/arch"
	"repro/internal/controller"
	"repro/internal/fabric"
	"repro/internal/repo"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/server/store"
	"repro/internal/transport"
)

// shadow is the bench's own copy of one node, built from the same
// public constructors with the same sizes. The traced pass replays
// every operation's input through it, one public function per stage,
// so each layer is timed from outside: nothing in the daemons is
// instrumented. Because the shadow sees the same inputs in the same
// order as the node, its store dedupes, its decoded cache hits and its
// fabrics fill exactly when the node's do.
type shadow struct {
	tr     *tracer
	store  *store.Store
	cache  *store.Cache[*controller.Decoded]
	ctrls  []*controller.Controller
	policy sched.Policy
	// disk is the write-through tier a clustered node pays on a new
	// blob; nil on a RAM-only node.
	disk    *repo.Repo
	diskDir string
	// placed maps the node's task id to where the shadow put the task.
	placed map[int64]placement
	loads  []loadTrace
}

type placement struct {
	fabric int
	id     fabric.TaskID
}

// loadStages lists every stage a load's replay can record, in
// execution order; a load's budget is the sum of the ones it ran.
var loadStages = []string{
	"server.body_parse", "store.digest",
	"store.put_hit", "store.put_new", "repo.put",
	"cache.get", "decode.c1", "decode.c2", "decode.c4",
	"controller.place", "server.reply_encode",
}

func newShadow(cfg *runConfig) (*shadow, error) {
	pol, err := sched.New("")
	if err != nil {
		return nil, err
	}
	sh := &shadow{
		tr:    newTracer(),
		store: store.NewTiered(storeBytes, nil),
		cache: store.NewCache[*controller.Decoded](cacheBits,
			func(d *controller.Decoded) int64 { return int64(d.SizeBits()) }),
		policy: pol,
		placed: map[int64]placement{},
	}
	for i := 0; i < nodeFabrics; i++ {
		fab, err := fabric.New(arch.Params{W: archW, K: archK}, arch.Grid{Width: fabricSide, Height: fabricSide})
		if err != nil {
			return nil, err
		}
		sh.ctrls = append(sh.ctrls, controller.New(fab, 0))
	}
	if cfg.w.clustered {
		if sh.diskDir, err = tempDir(cfg.tmpRoot(), "shadow-"); err != nil {
			return nil, err
		}
		if sh.disk, err = repo.Open(sh.diskDir, repo.Options{}); err != nil {
			sh.close()
			return nil, err
		}
	}
	return sh, nil
}

func (sh *shadow) close() {
	if sh.diskDir != "" {
		_ = os.RemoveAll(sh.diskDir)
	}
}

// preload brings the shadow to the state the fleet's preload left
// the node in: warm bases stored and decoded, nothing placed.
func (sh *shadow) preload(bases []*container) error {
	keep := sh.tr
	sh.tr = newTracer()
	defer func() { sh.tr = keep }()
	for i, task := range bases {
		id := int64(-1 - i)
		if err := sh.load(0, 0, task, id, 0); err != nil {
			return err
		}
		if err := sh.unload(0, 0, id); err != nil {
			return err
		}
	}
	sh.loads = nil
	return nil
}

// load replays one load through the node-side stages, in the order
// server.loadOne runs them, and books the outcome for the budget.
func (sh *shadow) load(root, opID int, task *container, realID int64, e2e time.Duration) error {
	var sum, decode time.Duration
	var failure error
	stage := func(name string, fn func() error) {
		if failure != nil {
			return
		}
		sum += sh.tr.timed(root, opID, name, func() { failure = fn() })
	}

	var data []byte
	req := httptest.NewRequest(http.MethodPost, "/tasks", bytes.NewReader(task.body))
	rec := httptest.NewRecorder()
	stage("server.body_parse", func() error {
		var body struct {
			VBS string `json:"vbs"`
		}
		if !server.DecodeJSONBody(rec, req, server.DefaultMaxBodyBytes, &body) {
			return fmt.Errorf("replay: body of %s rejected", task.name)
		}
		var err error
		data, err = base64.StdEncoding.DecodeString(body.VBS)
		return err
	})
	var digest store.Digest
	stage("store.digest", func() error {
		digest = store.DigestOf(data)
		return nil
	})
	var ent *store.Entry
	if _, held := sh.store.Get(digest); held {
		stage("store.put_hit", func() (err error) {
			ent, _, err = sh.store.Put(data)
			return err
		})
	} else {
		stage("store.put_new", func() (err error) {
			ent, _, err = sh.store.Put(data)
			return err
		})
		if sh.disk != nil {
			stage("repo.put", func() error {
				_, _, err := sh.disk.Put(data)
				return err
			})
		}
	}
	var dec *controller.Decoded
	stage("cache.get", func() error {
		dec, _ = sh.cache.Get(digest)
		return nil
	})
	if failure == nil && dec == nil {
		before := sum
		stage(fmt.Sprintf("decode.c%d", ent.VBS.Cluster), func() (err error) {
			if dec, err = controller.DecodeVBS(ent.VBS, 0); err == nil {
				sh.cache.Put(digest, dec)
			}
			return err
		})
		decode = sum - before
	}
	var reply loadReply
	stage("controller.place", func() error {
		stats := make([]sched.FabricStat, len(sh.ctrls))
		for i, c := range sh.ctrls {
			stats[i] = sched.FabricStat{Index: i, Width: fabricSide, Height: fabricSide, FreeMacros: c.Stats().FreeMacros}
		}
		var err error
		for _, fi := range sh.policy.RankFabrics(stats, sched.Request{W: ent.VBS.TaskW, H: ent.VBS.TaskH}) {
			var t *controller.Task
			if t, err = sh.ctrls[fi].LoadDecodedPolicy(dec, sh.policy); err == nil {
				sh.placed[realID] = placement{fi, t.ID}
				reply = loadReply{ID: realID, Fabric: fi, X: t.X, Y: t.Y, Digest: digest.String(),
					TaskW: ent.VBS.TaskW, TaskH: ent.VBS.TaskH, CompressionRatio: ent.VBS.CompressionRatio()}
				return nil
			}
		}
		return fmt.Errorf("replay: no fabric accepted %s: %w", task.name, err)
	})
	stage("server.reply_encode", func() error {
		return json.NewEncoder(rec).Encode(&reply)
	})
	if failure != nil {
		return failure
	}
	sh.loads = append(sh.loads, loadTrace{e2e: e2e, stages: sum, decode: decode})
	return nil
}

func (sh *shadow) get(root, opID int, digest string) error {
	d, err := store.ParseDigest(digest)
	if err != nil {
		return err
	}
	sh.tr.timed(root, opID, "store.get_data", func() { _, err = sh.store.GetData(d) })
	return err
}

func (sh *shadow) unload(root, opID int, realID int64) error {
	pl, ok := sh.placed[realID]
	if !ok {
		return fmt.Errorf("replay: task %d has no shadow", realID)
	}
	delete(sh.placed, realID)
	var err error
	sh.tr.timed(root, opID, "controller.unload", func() { err = sh.ctrls[pl.fabric].Unload(pl.id) })
	return err
}

// batch replays one batch: the frame codec on the body as the
// gateway ships it to a node, then every op in order. unloadIDs and
// loadIDs carry the node's task ids per op position.
func (sh *shadow) batch(root, batchID int, body []byte, ops []op, unloadIDs, loadIDs []int64, e2e time.Duration) error {
	mark := len(sh.loads)
	var err error
	codec := sh.tr.timed(root, batchID, "transport.frame_codec", func() { err = frameCodec(body) })
	if err != nil {
		return err
	}
	for i, o := range ops {
		switch o.kind {
		case opLoad:
			err = sh.load(root, batchID, o.task, loadIDs[i], 0)
		case opGet:
			err = sh.get(root, batchID, o.digest)
		case opUnload:
			err = sh.unload(root, batchID, unloadIDs[i])
		}
		if err != nil {
			return err
		}
	}
	// The budget of a batch is booked once, for the batch: its loads'
	// stages add up against the one round trip.
	total := loadTrace{e2e: e2e, stages: codec}
	for _, l := range sh.loads[mark:] {
		total.stages += l.stages
		total.decode += l.decode
	}
	sh.loads = append(sh.loads[:mark], total)
	return nil
}

// frameCodec writes a batch body as one request frame, compression
// on as between gateway and node, and reads it back.
func frameCodec(body []byte) error {
	var buf bytes.Buffer
	msg := transport.EncodeMsg(transport.MsgBatch, body)
	if _, _, err := transport.WriteFrame(&buf, transport.Frame{Type: transport.FrameReq, Seq: 1, Payload: msg}, true); err != nil {
		return err
	}
	f, _, err := transport.ReadFrame(&buf, 0)
	if err == nil && len(f.Payload) != len(msg) {
		err = fmt.Errorf("frame codec: %d bytes back, sent %d", len(f.Payload), len(msg))
	}
	return err
}
