package transport_test

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"testing"

	"repro/internal/loadgen"
	"repro/internal/server"
	"repro/internal/transport"
)

// BenchmarkBatchFrame prices one MsgBatch request frame through the
// codec — WriteFrame then ReadFrame — for the envelope the gateway
// fans out: 16 load ops of base64'd small containers (loadgen seeds
// 1..8 on W=20, K=6, as the benchmark's small set). flate is the path
// with per-frame compression attempted; raw is the FlagRaw path the
// batch RPC takes.
func BenchmarkBatchFrame(b *testing.B) {
	var req server.BatchRequest
	for i := 0; i < 16; i++ {
		data, err := loadgen.GenTask(int64(i%8+1), 20, 6)
		if err != nil {
			b.Fatal(err)
		}
		req.Ops = append(req.Ops, server.BatchOp{Op: "load", VBS: base64.StdEncoding.EncodeToString(data)})
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	msg := transport.EncodeMsg(transport.MsgBatch, body)
	for _, c := range []struct {
		name  string
		flags byte
	}{{"flate", 0}, {"raw", transport.FlagRaw}} {
		b.Run(c.name, func(b *testing.B) {
			var buf bytes.Buffer
			b.SetBytes(int64(len(msg)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				f := transport.Frame{Type: transport.FrameReq, Flags: c.flags, Seq: uint64(i), Payload: msg}
				if _, _, err := transport.WriteFrame(&buf, f, true); err != nil {
					b.Fatal(err)
				}
				got, _, err := transport.ReadFrame(&buf, 0)
				if err != nil {
					b.Fatal(err)
				}
				if len(got.Payload) != len(msg) {
					b.Fatalf("%d bytes back, sent %d", len(got.Payload), len(msg))
				}
			}
		})
	}
}
