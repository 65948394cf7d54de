package fed

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"fedpower/internal/nn"
)

// Wire protocol of the TCP transport. Every message is a fixed 9-byte
// little-endian header followed by an optional parameter payload:
//
//	offset 0: type  (uint8)  — msgModel, msgUpdate, msgDone or msgJoin
//	offset 1: round (uint32) — 1-based federated round number
//	offset 5: count (uint32) — number of parameters that follow
//
// The payload encoding is the connection's negotiated codec (see codec.go):
// dense float32 by default, so a dense model payload for the paper's
// 687-parameter network is 2748 bytes, matching the 2.8 kB per transfer
// reported in §IV-C (the 9-byte header is protocol framing, not model
// data). The join frame reuses the header with the round field carrying the
// device's self-assigned client ID and the count field carrying the
// client's codec wire ID — zero for dense, so a dense join frame is
// byte-identical to the pre-codec protocol. It is sent once per connection
// so the server can give every device a stable aggregation slot across
// reconnects and reject codec mismatches before any model bytes move (byte
// counters exclude it — they track model-bearing traffic, the paper's
// metric).
//
// Privacy contract: the payload carries learned model parameters and
// nothing else — never raw telemetry (observations, power readings,
// traces). This is the paper's federated-learning privacy claim, and it is
// machine-checked: the privacytaint analyzer (internal/lint) treats
// message.params, the codec encoders and every Write in this package as a
// sink and proves no telemetry-derived value reaches them, with
// (*nn.Network).Params as the only sanctioned declassification. See
// DESIGN.md, "Machine-checked privacy boundary".
const (
	msgModel  = byte(1) // server → client: global model for the round
	msgUpdate = byte(2) // client → server: locally optimised model
	msgDone   = byte(3) // server → client: training finished, payload = final model
	msgJoin   = byte(4) // client → server: hello after dial; round = client ID, count = codec ID, no payload
	msgRelay  = byte(5) // aggregator → parent: exact per-parameter sub-sums + leaf count (see below)
)

// The relay frame (msgRelay) is how an interior aggregator forwards its
// subtree's round result upward. Its header count field is the parameter
// count; the payload is
//
//	offset 0: leaves (uint32) — leaf devices aggregated in this subtree
//	offset 4: blen   (uint32) — byte length of the accumulator block
//	offset 8: count consecutive nn.Accum wire encodings (nn.AppendWire)
//
// The block is written by the subtree's nn.ParamSum (ParamSum.AppendWire)
// and merged by the parent's (ParamSum.AddWire), so neither end builds an
// Accum per parameter: a parameter whose exact sum is one float64 crosses
// as the flag|span byte, the origin limb and one or two limbs written from
// its bits. The bytes are those of the Accum holding the same sum. The
// receiver checks the whole block with nn.ScanAccumWire before any sum is
// touched, so a malformed frame is dropped whole.
//
// The payload deliberately bypasses the per-hop codec: a subtree result is
// an exact fixed-point sum, and re-encoding it through a float32 codec would
// round it, breaking the end-to-end bit-identity proof (DESIGN.md). The
// negotiated codec still compresses every other hop — the downward model
// broadcasts and the leaf updates, which dominate traffic. Relay bytes are
// model-bearing and count toward the transfer-size accounting.

const headerSize = 9

// The caps hostile header fields are checked against (maxWireParams,
// maxRelayLeaves, maxJoinCodec, …) live in limits.go — one constants file,
// so every decode path narrows against the same declared bounds.

type message struct {
	kind   byte
	round  int
	codec  byte // join frames only: the client's codec wire ID
	params []float64
	leaves int          // relay frames only: leaf count of the subtree
	sum    *nn.ParamSum // relay frames written: the subtree's exact sum
	block  []byte       // relay frames read: count scanned accumulator encodings
	count  int          // relay frames read: the header's parameter count
}

// writeMessage frames and writes one message under this direction's codec,
// returning the number of bytes written on the wire. The params slice is
// only read; encode scratch is codec-owned, so the steady-state path
// allocates nothing.
func (cs *codecState) writeMessage(w *bufio.Writer, m message) (int, error) {
	hdr := &cs.hdr
	hdr[0] = m.kind
	binary.LittleEndian.PutUint32(hdr[1:], uint32(m.round))
	if m.kind == msgJoin {
		binary.LittleEndian.PutUint32(hdr[5:], uint32(m.codec))
		if _, err := w.Write(hdr[:]); err != nil {
			return 0, fmt.Errorf("fed: write header: %w", err)
		}
		if err := w.Flush(); err != nil {
			return headerSize, fmt.Errorf("fed: flush: %w", err)
		}
		return headerSize, nil
	}
	if m.kind == msgRelay {
		return cs.writeRelay(w, m)
	}
	binary.LittleEndian.PutUint32(hdr[5:], uint32(len(m.params)))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("fed: write header: %w", err)
	}
	n := headerSize
	if len(m.params) > 0 {
		payload := cs.encodePayload(m.params)
		if _, err := w.Write(payload); err != nil {
			return n, fmt.Errorf("fed: write payload: %w", err)
		}
		n += len(payload)
	}
	if err := w.Flush(); err != nil {
		return n, fmt.Errorf("fed: flush: %w", err)
	}
	return n, nil
}

// writeRelay frames and writes one relay message: header (count = number of
// parameters), then the leaf count, the accumulator-block length and the
// sum's relay block. The block is built in the codec's scratch buffer, so
// the steady-state path reuses storage round over round.
func (cs *codecState) writeRelay(w *bufio.Writer, m message) (int, error) {
	if m.leaves < 1 {
		return 0, fmt.Errorf("fed: relay frame with leaf count %d", m.leaves)
	}
	hdr := &cs.hdr
	binary.LittleEndian.PutUint32(hdr[5:], uint32(m.sum.NumParams()))
	buf := m.sum.AppendWire(append(cs.scratch[:0], 0, 0, 0, 0, 0, 0, 0, 0))
	cs.scratch = buf[:0]
	binary.LittleEndian.PutUint32(buf, uint32(m.leaves))
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(buf)-8))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("fed: write header: %w", err)
	}
	n := headerSize
	if _, err := w.Write(buf); err != nil {
		return n, fmt.Errorf("fed: write relay payload: %w", err)
	}
	n += len(buf)
	if err := w.Flush(); err != nil {
		return n, fmt.Errorf("fed: flush: %w", err)
	}
	return n, nil
}

// readRelay reads the payload of a relay frame whose header announced count
// accumulators into the codec's scratch buffer and sets m.block to it,
// valid until the next read. Hostile lengths are bounded before any
// allocation, and a block that is not exactly count accumulator encodings
// consuming exactly its announced length is rejected whole — a partial
// sub-sum never survives this function.
func (cs *codecState) readRelay(r *bufio.Reader, m *message, count int) (int, error) {
	pre := &cs.pre
	n := headerSize
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return n, fmt.Errorf("fed: read relay preamble: %w", err)
	}
	n += 8
	leaves := int(binary.LittleEndian.Uint32(pre[:]))
	blen := int(binary.LittleEndian.Uint32(pre[4:]))
	if leaves < 1 || leaves > maxRelayLeaves {
		return n, fmt.Errorf("fed: relay leaf count %d out of range", leaves)
	}
	if blen < count || blen > count*nn.MaxAccumWire {
		return n, fmt.Errorf("fed: relay block length %d for %d accumulators", blen, count)
	}
	buf := cs.growScratch(blen)
	if _, err := io.ReadFull(r, buf); err != nil {
		return n, fmt.Errorf("fed: read relay payload: %w", err)
	}
	n += blen
	if err := nn.ScanAccumWire(buf, count); err != nil {
		return n, fmt.Errorf("fed: relay %w", err)
	}
	m.leaves, m.block, m.count, m.params = leaves, buf, count, m.params[:0]
	return n, nil
}

// readMessage reads and decodes one framed message under this direction's
// codec into m, reusing m's params storage, and returns the number of bytes
// consumed from the wire. The decoded params are valid until the next
// readMessage on the same message value.
func (cs *codecState) readMessage(r *bufio.Reader, m *message) (int, error) {
	hdr := &cs.hdr
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("fed: read header: %w", err)
	}
	kind := hdr[0]
	if kind != msgModel && kind != msgUpdate && kind != msgDone && kind != msgJoin && kind != msgRelay {
		return headerSize, fmt.Errorf("fed: unknown message type %d", kind)
	}
	round := int(binary.LittleEndian.Uint32(hdr[1:]))
	count := int(binary.LittleEndian.Uint32(hdr[5:]))
	if kind == msgJoin {
		// The count field of a join frame carries the codec wire ID, and a
		// join never has a payload.
		if count > maxJoinCodec {
			return headerSize, fmt.Errorf("fed: join codec id %d exceeds limit", count)
		}
		m.kind, m.round, m.codec, m.params = kind, round, byte(count), m.params[:0]
		return headerSize, nil
	}
	if count > maxWireParams {
		return headerSize, fmt.Errorf("fed: parameter count %d exceeds limit", count)
	}
	if kind == msgRelay {
		m.kind, m.round, m.codec, m.leaves = kind, round, 0, 0
		return cs.readRelay(r, m, count)
	}
	m.kind, m.round, m.codec, m.leaves = kind, round, 0, 0
	n := headerSize
	if count == 0 {
		m.params = m.params[:0]
		return n, nil
	}
	buf := cs.growScratch(cs.codec.payloadSize(count))
	if _, err := io.ReadFull(r, buf); err != nil {
		return n, fmt.Errorf("fed: read payload: %w", err)
	}
	n += len(buf)
	params, err := cs.decodePayload(m.params, count, buf)
	if err != nil {
		return n, err
	}
	m.params = params
	return n, nil
}

// writeMessage frames and writes one dense-encoded message, returning the
// number of bytes written on the wire. It is the codec-unaware entry point
// of the original protocol — equivalent to a fresh dense codecState, which
// carries no cross-message state.
func writeMessage(w *bufio.Writer, m message) (int, error) {
	var cs codecState
	return cs.writeMessage(w, m)
}

// readMessage reads and decodes one dense-encoded framed message.
func readMessage(r *bufio.Reader) (message, error) {
	var cs codecState
	var m message
	_, err := cs.readMessage(r, &m)
	if err != nil {
		return message{}, err
	}
	return m, nil
}

// TransferSize returns the on-wire size in bytes of one dense model message
// for a network with n parameters — the paper's §IV-C accounting. For other
// codecs, see Codec.TransferSize.
func TransferSize(n int) int { return headerSize + nn.WireSize(n) }
