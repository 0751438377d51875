package transport

import (
	"encoding/binary"
	"fmt"
)

// Message kinds — the first payload byte of every data and req frame.
// The frame codec is oblivious to them; they are the application
// envelope the daemons speak over a stream.
const (
	// MsgObjPut carries a content-addressed blob to store (data frame
	// for pipelined replication; req frame when the sender needs the
	// outcome, e.g. repair and rebalance copies).
	MsgObjPut byte = 0x01
	// MsgPing is an empty health-check RPC.
	MsgPing byte = 0x02
	// MsgBatch is a JSON server.BatchRequest RPC; the resp body is a
	// JSON server.BatchResponse. Both frames ride FlagRaw: the bodies
	// are mostly base64'd containers.
	MsgBatch byte = 0x03
)

// DigestLen is the content digest length (SHA-256).
const DigestLen = 32

// MsgKind returns a message's kind byte (0 for an empty message).
func MsgKind(p []byte) byte {
	if len(p) == 0 {
		return 0
	}
	return p[0]
}

// objPut layout: kind(1) | force(1) | digest(32) | blob bytes.
const objPutHeader = 2 + DigestLen

// EncodeObjPut builds a MsgObjPut message. force carries the same
// semantics as PutVBSRequest.Force: lift a delete tombstone (gateway
// write-through replication) versus be refused by one (automated
// repair copies).
func EncodeObjPut(digest [DigestLen]byte, force bool, blob []byte) []byte {
	out := make([]byte, objPutHeader+len(blob))
	out[0] = MsgObjPut
	if force {
		out[1] = 1
	}
	copy(out[2:], digest[:])
	copy(out[objPutHeader:], blob)
	return out
}

// DecodeObjPut splits a MsgObjPut message. The blob slice aliases p.
func DecodeObjPut(p []byte) (digest [DigestLen]byte, force bool, blob []byte, err error) {
	if len(p) < objPutHeader || p[0] != MsgObjPut {
		return digest, false, nil, fmt.Errorf("%w: objput envelope", ErrBadFrame)
	}
	force = p[1] != 0
	copy(digest[:], p[2:objPutHeader])
	return digest, force, p[objPutHeader:], nil
}

// EncodeMsg prefixes body with a kind byte — the envelope for JSON
// RPCs like MsgBatch.
func EncodeMsg(kind byte, body []byte) []byte {
	out := make([]byte, 1+len(body))
	out[0] = kind
	copy(out[1:], body)
	return out
}

// MsgBody returns the message body after the kind byte.
func MsgBody(p []byte) []byte {
	if len(p) == 0 {
		return nil
	}
	return p[1:]
}

// Resp envelope: status(2, HTTP semantics) | body. Carrying HTTP
// status codes lets stream results flow through the same error
// mapping (410 tombstoned, 409 busy, 5xx failover) as the REST path.
const respHeader = 2

// EncodeResult builds an RPC response payload.
func EncodeResult(status int, body []byte) []byte {
	out := make([]byte, respHeader+len(body))
	binary.BigEndian.PutUint16(out[0:2], uint16(status))
	copy(out[respHeader:], body)
	return out
}

// DecodeResult splits an RPC response payload. The body aliases p.
func DecodeResult(p []byte) (status int, body []byte, err error) {
	if len(p) < respHeader {
		return 0, nil, fmt.Errorf("%w: result envelope", ErrBadFrame)
	}
	return int(binary.BigEndian.Uint16(p[0:2])), p[respHeader:], nil
}
