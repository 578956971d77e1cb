// Package netfleet scales the serving layer past one process: a fleet of
// node processes (cmd/served), each owning a contiguous bank shard of one
// mmpu.Organization, behind a client-side router with deterministic
// bank→node routing (mmpu.NodeMap), request batching and pipelining per
// connection, and per-node backpressure. On top of the data plane, nodes
// run a PraSLE-style self-stabilizing election (internal/election) that
// rotates fleet-wide scrub ownership: the leader grants one
// crossbar-scrub epoch per round, and a node crash/rejoin converges back
// to single-ownership without double-scrubbing.
//
// # Wire protocol
//
// One TCP connection carries length-prefixed frames:
//
//	uint32 LE  frame length (type + seq + payload)
//	uint8      message type
//	uint64 LE  sequence number (echoed in the response; 0 for one-way)
//	...        payload
//
// Request/response batches — the hot path — use a fixed binary layout;
// control messages (hello, snapshot, stats, gossip, grant) are JSON, so
// they stay debuggable and can grow fields without a version dance.
// Responses may arrive out of order: the sequence number, not arrival
// order, matches them to callers — that is what per-connection
// pipelining rides on.
package netfleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/pmem"
	"repro/internal/serve"
)

// Message types.
const (
	msgHello        = 1  // JSON hello → msgHelloResp
	msgHelloResp    = 2  // JSON hello (the node's view)
	msgBatch        = 3  // binary request batch → msgBatchResp
	msgBatchResp    = 4  // binary response batch
	msgSnapshotReq  = 5  // empty → msgSnapshotResp
	msgSnapshotResp = 6  // JSON telemetry.WireSnapshot
	msgStatsReq     = 7  // empty → msgStatsResp
	msgStatsResp    = 8  // JSON NodeStats
	msgGossip       = 9  // JSON gossipMsg (one-way, per election round)
	msgGrant        = 10 // JSON grantMsg (one-way, leader → crossbar owner)
	msgErr          = 11 // JSON wireError (terminal failure of the request)
)

// maxFrame bounds a frame's length: garbage on the wire must fail fast,
// not allocate gigabytes. 1MiB fits ~57k batched requests — far above
// any sane batch size.
const maxFrame = 1 << 20

// maxBatch bounds the requests per batch frame.
const maxBatch = 1 << 14

// frame header: length prefix excluded.
const headerLen = 1 + 8

// writeFrame writes one frame. Callers serialize writes per connection.
func writeFrame(w io.Writer, typ byte, seq uint64, payload []byte) error {
	if len(payload) > maxFrame-headerLen {
		return fmt.Errorf("netfleet: frame payload %d exceeds %d", len(payload), maxFrame-headerLen)
	}
	buf := appendHeader(make([]byte, 0, 4+headerLen+len(payload)), typ, seq)
	buf = append(buf, payload...)
	putLength(buf)
	_, err := w.Write(buf)
	return err
}

// appendHeader appends a frame's length prefix and header to dst; the
// payload follows, and putLength fills the prefix once it has.
func appendHeader(dst []byte, typ byte, seq uint64) []byte {
	dst = append(dst, 0, 0, 0, 0, typ)
	return binary.LittleEndian.AppendUint64(dst, seq)
}

// putLength fills the length prefix of a whole frame: an appendHeader
// header and the payload after it.
func putLength(frame []byte) {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
}

// readFrame reads one frame, rejecting oversized or truncated input. The
// payload lands at the start of buf's backing array, which grows when the
// frame does not fit, so a reader that hands each payload back as the
// next buf reads without allocating; a nil buf allocates.
func readFrame(r io.Reader, buf []byte) (typ byte, seq uint64, payload []byte, err error) {
	buf = slices.Grow(buf[:0], 4)[:4]
	if _, err = io.ReadFull(r, buf); err != nil {
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(buf)
	if n < headerLen || n > maxFrame {
		return 0, 0, nil, fmt.Errorf("netfleet: frame length %d outside [%d,%d]", n, headerLen, maxFrame)
	}
	buf = slices.Grow(buf[:0], int(n))[:n]
	if _, err = io.ReadFull(r, buf); err != nil {
		return 0, 0, nil, err
	}
	typ, seq = buf[0], binary.LittleEndian.Uint64(buf[1:headerLen])
	return typ, seq, buf[:copy(buf, buf[headerLen:])], nil
}

// Request batch layout: uint32 count, then per request
// uint8 op | uint64 addr | uint8 width | uint64 data — 18 bytes each.
const reqSize = 1 + 8 + 1 + 8

// encodeBatch renders requests into a batch payload. OpCompute does not
// cross the wire: compute plans are process-local pointers, and the fleet
// serves memory traffic — the router rejects compute requests with a
// typed error before they reach here.
func encodeBatch(reqs []serve.Request) ([]byte, error) {
	if len(reqs) > maxBatch {
		return nil, fmt.Errorf("netfleet: batch of %d exceeds %d", len(reqs), maxBatch)
	}
	buf := make([]byte, 4+reqSize*len(reqs))
	binary.LittleEndian.PutUint32(buf, uint32(len(reqs)))
	off := 4
	for _, r := range reqs {
		switch r.Op {
		case serve.OpRead, serve.OpWrite:
		default:
			return nil, fmt.Errorf("netfleet: op %d not transportable", r.Op)
		}
		if r.Width < 0 || r.Width > 255 {
			return nil, fmt.Errorf("netfleet: width %d not transportable", r.Width)
		}
		buf[off] = byte(r.Op)
		binary.LittleEndian.PutUint64(buf[off+1:], uint64(r.Addr))
		buf[off+9] = byte(r.Width)
		binary.LittleEndian.PutUint64(buf[off+10:], r.Data)
		off += reqSize
	}
	return buf, nil
}

// decodeBatch parses a batch payload into dst's backing array, growing it
// when the batch does not fit, and returns the requests.
func decodeBatch(dst []serve.Request, b []byte) ([]serve.Request, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("netfleet: batch truncated at %d bytes", len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	if n > maxBatch {
		return nil, fmt.Errorf("netfleet: batch of %d exceeds %d", n, maxBatch)
	}
	if len(b) != 4+int(n)*reqSize {
		return nil, fmt.Errorf("netfleet: batch of %d wants %d bytes, got %d", n, 4+int(n)*reqSize, len(b))
	}
	reqs := slices.Grow(dst[:0], int(n))[:n]
	off := 4
	for i := range reqs {
		op := serve.OpKind(b[off])
		if op != serve.OpRead && op != serve.OpWrite {
			return nil, fmt.Errorf("netfleet: request %d has op %d", i, op)
		}
		reqs[i] = serve.Request{
			Op:    op,
			Addr:  int64(binary.LittleEndian.Uint64(b[off+1:])),
			Width: int(b[off+9]),
			Data:  binary.LittleEndian.Uint64(b[off+10:]),
		}
		off += reqSize
	}
	return reqs, nil
}

// Response error codes. The wire carries a code, not a Go error; the
// client rehydrates the matching typed error so errors.Is works across
// the network the way it does in-process.
const (
	codeOK byte = iota
	codeRange
	codeSpan
	codeClosed
	codeOther
)

// Response batch layout: uint32 count, then per response
// uint8 code | uint64 data | uint16 msgLen | msg — the message is empty
// except for codeOther, which carries the error text verbatim.
//
// encodeResponses appends the payload for resps to dst.
func encodeResponses(dst []byte, resps []serve.Response) ([]byte, error) {
	start := len(dst)
	dst = slices.Grow(dst, 4+11*len(resps))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(resps)))
	for _, r := range resps {
		code, msg := codeOK, ""
		if r.Err != nil {
			if code = codeFor(r.Err); code == codeOther {
				msg = r.Err.Error()
				if len(msg) > 1<<12 {
					msg = msg[:1<<12]
				}
			}
		}
		dst = append(dst, code)
		dst = binary.LittleEndian.AppendUint64(dst, r.Data)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(msg)))
		dst = append(dst, msg...)
		// Checked per response, so a batch of long messages fails at the
		// limit rather than after encoding all of them.
		if len(dst)-start > maxFrame-headerLen {
			return dst[:start], fmt.Errorf("netfleet: response batch of %d responses exceeds the frame limit", len(resps))
		}
	}
	return dst, nil
}

// codeFor maps a serving error onto its wire code.
func codeFor(err error) byte {
	switch {
	case errors.Is(err, pmem.ErrRange):
		return codeRange
	case errors.Is(err, pmem.ErrSpan):
		return codeSpan
	case errors.Is(err, serve.ErrServerClosed):
		return codeClosed
	default:
		return codeOther
	}
}

// errFor is the client-side inverse of codeFor: range/span/closed
// responses come back as the same sentinel errors in-process callers
// match on.
func errFor(code byte, msg string) error {
	switch code {
	case codeOK:
		return nil
	case codeRange:
		return fmt.Errorf("netfleet: remote: %w", pmem.ErrRange)
	case codeSpan:
		return fmt.Errorf("netfleet: remote: %w", pmem.ErrSpan)
	case codeClosed:
		return fmt.Errorf("netfleet: remote: %w", serve.ErrServerClosed)
	default:
		if msg == "" {
			msg = "unknown remote error"
		}
		return fmt.Errorf("netfleet: remote: %s", msg)
	}
}

// decodeResponses parses a response batch payload.
func decodeResponses(b []byte) ([]serve.Response, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("netfleet: response batch truncated at %d bytes", len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	if n > maxBatch {
		return nil, fmt.Errorf("netfleet: response batch of %d exceeds %d", n, maxBatch)
	}
	resps := make([]serve.Response, 0, n)
	off := 4
	for i := uint32(0); i < n; i++ {
		if off+11 > len(b) {
			return nil, fmt.Errorf("netfleet: response %d truncated", i)
		}
		code := b[off]
		data := binary.LittleEndian.Uint64(b[off+1:])
		msgLen := int(binary.LittleEndian.Uint16(b[off+9:]))
		off += 11
		if off+msgLen > len(b) {
			return nil, fmt.Errorf("netfleet: response %d message truncated", i)
		}
		msg := string(b[off : off+msgLen])
		off += msgLen
		resps = append(resps, serve.Response{Data: data, Err: errFor(code, msg)})
	}
	if off != len(b) {
		return nil, fmt.Errorf("netfleet: %d trailing bytes after %d responses", len(b)-off, n)
	}
	return resps, nil
}

// hello is the connection preamble: both sides state the fleet shape they
// were configured with, and the client refuses a node whose view
// disagrees — a mis-started fleet fails loudly at dial time instead of
// silently routing to the wrong banks.
type hello struct {
	Node    int   `json:"node"`  // responding node's index
	Nodes   int   `json:"nodes"` // fleet size
	N       int   `json:"n"`     // crossbar side
	Banks   int   `json:"banks"`
	PerBank int   `json:"perbank"`
	BankLo  int   `json:"bank_lo"`
	BankHi  int   `json:"bank_hi"`
	Epoch   int64 `json:"epoch"` // rotation epoch at response time
}

// wireError is the JSON payload of msgErr.
type wireError struct {
	Error string `json:"error"`
}
