package server

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"time"

	"repro/internal/server/store"
	"repro/internal/transport"
)

// handleStream upgrades GET /stream into a persistent framed
// connection — the gateway's data plane into this node. Data frames
// carry pipelined replication puts; RPCs carry pings, synchronous
// copies and batches.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	conn, err := transport.Upgrade(w, r)
	if err != nil {
		return // Upgrade already answered over HTTP
	}
	defer conn.Close()
	err = transport.Serve(conn, transport.Handlers{
		Data: s.streamData,
		Call: s.streamCall,
	}, transport.Config{
		Compress: true,
		Metrics:  s.transport,
		Logf:     log.Printf,
	})
	if err != nil {
		log.Printf("stream from %s: %v", conn.RemoteAddr(), err)
	}
}

// streamData handles a fire-and-forget replication put. The content
// address is re-verified against the bytes that actually arrived: the
// frame CRC guards the wire, this guards everything between decode
// and the store — a mismatched blob is never admitted, so it can
// never be served.
func (s *Server) streamData(msg []byte) error {
	if transport.MsgKind(msg) != transport.MsgObjPut {
		return fmt.Errorf("unexpected data message kind %d", transport.MsgKind(msg))
	}
	digest, force, blob, err := transport.DecodeObjPut(msg)
	if err != nil {
		return err
	}
	if store.Digest(digest) != store.DigestOf(blob) {
		return fmt.Errorf("objput digest mismatch for %d blob bytes", len(blob))
	}
	// Same op label as POST /vbs: a replica copy is the same work
	// whether it arrived over HTTP or a stream frame.
	defer s.observe("vbs_put", time.Now())
	_, _, perr := s.putBlob(blob, force)
	return perr
}

// streamCall dispatches stream RPCs. Results carry HTTP status codes
// so both transports share one error vocabulary end to end.
func (s *Server) streamCall(msg []byte) ([]byte, bool) {
	switch transport.MsgKind(msg) {
	case transport.MsgPing:
		return transport.EncodeResult(http.StatusOK, nil), false
	case transport.MsgObjPut:
		digest, force, blob, err := transport.DecodeObjPut(msg)
		if err != nil {
			return streamErr(http.StatusBadRequest, err.Error()), false
		}
		if store.Digest(digest) != store.DigestOf(blob) {
			return streamErr(http.StatusBadRequest,
				fmt.Sprintf("objput digest mismatch for %d blob bytes", len(blob))), false
		}
		defer s.observe("vbs_put", time.Now())
		resp, status, perr := s.putBlob(blob, force)
		if perr != nil {
			return streamErr(status, perr.Error()), false
		}
		body, _ := json.Marshal(resp)
		return transport.EncodeResult(http.StatusCreated, body), false
	case transport.MsgBatch:
		var req BatchRequest
		if err := json.Unmarshal(transport.MsgBody(msg), &req); err != nil {
			return streamErr(http.StatusBadRequest, fmt.Sprintf("bad batch body: %v", err)), false
		}
		resp, status, err := s.execBatch(req)
		if err != nil {
			return streamErr(status, err.Error()), false
		}
		body, _ := json.Marshal(resp)
		// Raw, like the request: a batch reply carries the gets'
		// containers, already LZSS-compressed.
		return transport.EncodeResult(http.StatusOK, body), true
	default:
		return streamErr(http.StatusBadRequest,
			fmt.Sprintf("unknown stream message kind %d", transport.MsgKind(msg))), false
	}
}

// streamErr encodes an error result whose body mirrors the HTTP error
// JSON, so DecodeStreamResult reconstructs the same client error
// either way.
func streamErr(status int, msg string) []byte {
	body, _ := json.Marshal(errorResponse{Error: msg})
	return transport.EncodeResult(status, body)
}
