package netfleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"os"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/pmem"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// respCode classifies a response error the way the wire does, with nil
// as codeOK.
func respCode(err error) byte {
	if err == nil {
		return codeOK
	}
	return codeFor(err)
}

// FuzzWireRoundTrip drives every codec a fleet depends on: the framing
// layer and the request/response batch decoders must never panic or
// over-allocate on arbitrary bytes, anything they do accept must
// round-trip exactly, and the telemetry snapshot codec must keep
// snapshots byte-identical and merge-exact across the trip.
func FuzzWireRoundTrip(f *testing.F) {
	goodBatch, _ := encodeBatch([]serve.Request{
		{Op: serve.OpWrite, Addr: 12345, Width: 17, Data: 0xDEAD},
		{Op: serve.OpRead, Addr: 99, Width: 64},
	})
	goodResp, _ := encodeResponses(nil, []serve.Response{
		{Data: 7},
		{Err: fmt.Errorf("x: %w", pmem.ErrRange)},
		{Err: errors.New("boom")},
	})
	f.Add([]byte{}, uint64(0))
	f.Add(goodBatch, uint64(1))
	f.Add(goodResp, uint64(2))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}, uint64(3))

	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		// Garbage in: clean rejection, no panic, no unbounded allocation.
		// Anything the batch decoder accepts re-encodes byte-identically.
		if reqs, err := decodeBatch(nil, data); err == nil {
			enc, err := encodeBatch(reqs)
			if err != nil {
				t.Fatalf("decoded batch does not re-encode: %v", err)
			}
			if !bytes.Equal(enc, data) {
				t.Fatal("batch re-encode diverged from wire bytes")
			}
		}
		// Responses canonicalize error text, so the invariant is semantic:
		// data and error class survive a re-encode round trip.
		if resps, err := decodeResponses(data); err == nil {
			if enc, err := encodeResponses(nil, resps); err == nil {
				// The append form leaves dst's bytes alone and appends
				// the same payload.
				prefixed, err := encodeResponses([]byte("dst"), resps)
				if err != nil || string(prefixed[:3]) != "dst" || !bytes.Equal(prefixed[3:], enc) {
					t.Fatalf("appending to a non-empty dst diverged: %v", err)
				}
				back, err := decodeResponses(enc)
				if err != nil {
					t.Fatalf("re-encoded responses do not decode: %v", err)
				}
				for i := range back {
					if back[i].Data != resps[i].Data || respCode(back[i].Err) != respCode(resps[i].Err) {
						t.Fatalf("response %d diverged: %+v vs %+v", i, back[i], resps[i])
					}
				}
			}
		}
		if typ, seq, payload, err := readFrame(bytes.NewReader(data), nil); err == nil {
			// A whole valid frame in the fuzz input reads back as its
			// bytes say, and reading it into a used buffer changes
			// nothing.
			n := int(binary.LittleEndian.Uint32(data))
			if typ != data[4] || seq != binary.LittleEndian.Uint64(data[5:]) || !bytes.Equal(payload, data[4+headerLen:4+n]) {
				t.Fatal("readFrame diverged from the frame's bytes")
			}
			typ2, seq2, payload2, err := readFrame(bytes.NewReader(data), []byte("stale bytes"))
			if err != nil || typ2 != typ || seq2 != seq || !bytes.Equal(payload2, payload) {
				t.Fatalf("readFrame into a used buffer diverged: %v", err)
			}
		}

		// Structured round trip: requests built from the seed must come
		// back exactly.
		rng := rand.New(rand.NewSource(int64(seed)))
		reqs := make([]serve.Request, seed%64)
		for i := range reqs {
			op := serve.OpRead
			if rng.Intn(2) == 1 {
				op = serve.OpWrite
			}
			reqs[i] = serve.Request{Op: op, Addr: rng.Int63(), Width: rng.Intn(256), Data: rng.Uint64()}
		}
		enc, err := encodeBatch(reqs)
		if err != nil {
			t.Fatalf("valid batch refused: %v", err)
		}
		// Decoding into a longer, dirty destination reuses it and leaves
		// no stale request behind.
		dirty := make([]serve.Request, len(reqs)+3)
		for i := range dirty {
			dirty[i] = serve.Request{Op: serve.OpCompute, Addr: -1, Width: 99, Data: 1}
		}
		got, err := decodeBatch(dirty, enc)
		if err != nil {
			t.Fatalf("encoded batch refused: %v", err)
		}
		if len(got) != len(reqs) || (len(reqs) > 0 && !reflect.DeepEqual(got, reqs)) {
			t.Fatal("structured batch round trip diverged")
		}

		// Telemetry snapshot codec: a registry shaped by the fuzz input
		// must survive the JSON wire trip byte-identically, and merging
		// the two halves must commute across the codec.
		regA, regB := telemetry.New(), telemetry.New()
		half := len(data) / 2
		for i, b := range data {
			reg := regA
			if i >= half {
				reg = regB
			}
			reg.Counter("fuzz_total", "lane", string(rune('a'+int(b)%4))).Add(int64(b) + 1)
			reg.Histogram("fuzz_ns").Observe(int64(b) * (int64(seed%97) + 1))
		}
		for _, reg := range []*telemetry.Registry{regA, regB} {
			snap := reg.Snapshot()
			raw, err := json.Marshal(snap.Wire())
			if err != nil {
				t.Fatal(err)
			}
			var w telemetry.WireSnapshot
			if err := json.Unmarshal(raw, &w); err != nil {
				t.Fatal(err)
			}
			a, _ := json.Marshal(snap)
			b, _ := json.Marshal(w.Snapshot())
			if !bytes.Equal(a, b) {
				t.Fatalf("snapshot changed across the wire:\n%s\nvs\n%s", a, b)
			}
		}
		sa, sb := regA.Snapshot(), regB.Snapshot()
		ab, _ := json.Marshal(sa.Merge(sb))
		ba, _ := json.Marshal(sb.Merge(sa))
		if !bytes.Equal(ab, ba) {
			t.Fatal("snapshot merge is order-dependent")
		}
	})
}

// answer is one response frame as the fuzz harness keys it: the seq it
// echoes, its type and, for msgBatchResp, its response count (else -1).
type answer struct {
	seq  uint64
	typ  byte
	reqs int
}

// expectedAnswers walks a raw stream the way Node.handle reads it, up to
// the first frame with a bad length or a truncated tail, and returns the
// answers its complete frames must draw: one msgBatchResp with one
// response per request for a batch that decodes, msgErr for one that does
// not or for an unknown type, the matching response for hello, snapshot
// and stats requests, and nothing for one-way gossip and grants.
func expectedAnswers(stream []byte) map[answer]int {
	want := map[answer]int{}
	for len(stream) >= 4 {
		n := int(binary.LittleEndian.Uint32(stream))
		if n < headerLen || n > maxFrame || len(stream)-4 < n {
			break
		}
		typ, seq, payload := stream[4], binary.LittleEndian.Uint64(stream[5:]), stream[4+headerLen:4+n]
		stream = stream[4+n:]
		a := answer{seq: seq, typ: msgErr, reqs: -1}
		switch typ {
		case msgBatch:
			if reqs, err := decodeBatch(nil, payload); err == nil {
				a.typ, a.reqs = msgBatchResp, len(reqs)
			}
		case msgHello:
			a.typ = msgHelloResp
		case msgSnapshotReq:
			a.typ = msgSnapshotResp
		case msgStatsReq:
			a.typ = msgStatsResp
		case msgGossip, msgGrant:
			continue
		}
		want[a]++
	}
	return want
}

// exchange writes stream to a fresh connection to addr, half-closes it and
// collects every answer until the node closes its side.
func exchange(t *testing.T, addr string, stream []byte) map[answer]int {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	got := map[answer]int{}
	done := make(chan error, 1)
	go func() {
		var in []byte
		for {
			typ, seq, payload, err := readFrame(conn, in)
			if err != nil {
				if errors.Is(err, os.ErrDeadlineExceeded) {
					done <- err
				} else {
					done <- nil // EOF, or a reset after a malformed frame
				}
				return
			}
			a := answer{seq: seq, typ: typ, reqs: -1}
			if typ == msgBatchResp {
				resps, err := decodeResponses(payload)
				if err != nil {
					done <- fmt.Errorf("undecodable batch response %d: %v", seq, err)
					return
				}
				a.reqs = len(resps)
			}
			got[a]++
			in = payload
		}
	}()
	// A write may fail once the node has dropped the connection at a
	// malformed frame; what it answered before that still arrives.
	_, _ = conn.Write(stream)
	_ = conn.(*net.TCPConn).CloseWrite()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return got
}

// settle waits for the goroutine count to fall back to base: once its
// connection is gone, a node keeps no reader or frame worker for it.
func settle(t *testing.T, base int) {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the connection closed, %d before: a connection goroutine leaked", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// FuzzNodeFrames feeds arbitrary frame streams — any type, seq and
// payload, raw garbage, truncated tails — into a live loopback Node. The
// node must not panic; it must answer every complete frame before the
// first malformed one exactly as expectedAnswers says, each batch once
// under its own seq; its goroutines must return to their baseline once
// the connection closes; and a fresh connection must then serve several
// pipelined batch frames at once, each reading back its own writes, so
// two frames in flight never share pooled scratch.
func FuzzNodeFrames(f *testing.F) {
	org := testOrg()
	_, addrs := startFleet(f, org, 1, nil)

	frame := func(typ byte, seq uint64, payload []byte) []byte {
		var b bytes.Buffer
		if err := writeFrame(&b, typ, seq, payload); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	batch := func(reqs ...serve.Request) []byte {
		p, err := encodeBatch(reqs)
		if err != nil {
			f.Fatal(err)
		}
		return p
	}
	read := func(addr int64) serve.Request { return serve.Request{Op: serve.OpRead, Addr: addr, Width: 64} }
	write := func(addr int64, v uint64) serve.Request {
		return serve.Request{Op: serve.OpWrite, Addr: addr, Width: 64, Data: v}
	}
	var inFlight []byte
	for k := uint64(0); k < 6; k++ {
		reqs := []serve.Request{write(int64(k)*64, k), read(int64(k) * 64)}
		for i := uint64(0); i < k*9; i++ {
			reqs = append(reqs, read(int64(i*64)%(org.DataBits()-64)))
		}
		inFlight = append(inFlight, frame(msgBatch, 100+k, batch(reqs...))...)
	}
	mixed := slices.Concat(
		frame(msgHello, 1, []byte("{}")),
		frame(msgBatch, 2, batch(read(0), read(org.DataBits()), serve.Request{Op: serve.OpRead, Width: 200})),
		frame(msgBatch, 2, []byte{1, 0, 0, 0, 9}), // malformed payload, duplicate seq
		frame(msgStatsReq, 3, nil),
		frame(msgSnapshotReq, 4, nil),
		frame(msgGossip, 0, []byte("not json")),
		frame(msgBatchResp, 5, nil), // a type the node does not serve
		frame(msgBatch, 6, batch(write(64, 7))),
		frame(msgBatch, 7, batch(read(64)))[:20], // truncated tail
	)
	f.Add([]byte{}, uint64(0))
	f.Add(frame(msgBatch, 9, batch(read(0))), uint64(1))
	f.Add(inFlight, uint64(2))
	f.Add(mixed, uint64(3))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}, uint64(4))
	f.Add([]byte{3, 0, 0, 0, msgBatch, 1, 2}, uint64(5))

	f.Fuzz(func(t *testing.T, stream []byte, seed uint64) {
		base := runtime.NumGoroutine()
		want := expectedAnswers(stream)
		if got := exchange(t, addrs[0], stream); !maps.Equal(got, want) {
			t.Fatalf("answers %v, want %v", got, want)
		}
		settle(t, base)

		// Several pipelined batches on a fresh connection, each writing
		// its own slots and reading them back in the same frame.
		frames := 2 + int(seed%7)
		var good []byte
		wantData := map[uint64][]uint64{}
		for j := 0; j < frames; j++ {
			var reqs []serve.Request
			for p := 0; p <= (j+int(seed>>3))%8; p++ {
				addr := int64(j*8+p) * 64
				v := seed*31 + uint64(j*8+p)
				reqs = append(reqs, write(addr, v), read(addr))
				wantData[uint64(j)] = append(wantData[uint64(j)], 0, v)
			}
			good = append(good, frame(msgBatch, uint64(j), batch(reqs...))...)
		}
		conn, err := net.Dial("tcp", addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			conn.Close()
			settle(t, base)
		}()
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Write(good); err != nil {
			t.Fatal(err)
		}
		var in []byte
		for range frames {
			typ, seq, payload, err := readFrame(conn, in)
			if err != nil || typ != msgBatchResp {
				t.Fatalf("good batch answered with type %d: %v", typ, err)
			}
			resps, err := decodeResponses(payload)
			if err != nil {
				t.Fatal(err)
			}
			wantSeq, ok := wantData[seq]
			if !ok || len(resps) != len(wantSeq) {
				t.Fatalf("answer for seq %d: %d responses, want %d (answered before: %v)", seq, len(resps), len(wantSeq), !ok)
			}
			for i, r := range resps {
				if r.Err != nil || r.Data != wantSeq[i] {
					t.Fatalf("frame %d response %d: %+v, want data %#x", seq, i, r, wantSeq[i])
				}
			}
			delete(wantData, seq)
			in = payload
		}
	})
}
